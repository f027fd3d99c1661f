from ._parser import main

main()
