"""Fixed pure-Python reference kernel used to correct timings for host speed.

It exercises what skeincalc spends its time on -- dict lookups and stores
and small-int arithmetic in interpreted loops -- and imports nothing from
skeincalc, so its running time follows the host and not the code under
test.  Prints one JSON object: the loop's wall and CPU seconds.
"""

import json
import time

ROUNDS = 400_000


def kernel(rounds: int = ROUNDS) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) & 0x3FFF
        val = table.get(key, 0) + (i ^ acc)
        table[key] = val & 0xFFFFFFFF
        acc = (acc + val) & 0xFFFF
    return acc


if __name__ == "__main__":
    w0, c0 = time.perf_counter(), time.process_time()
    result = kernel()
    w1, c1 = time.perf_counter(), time.process_time()
    print(json.dumps({"wall_s": w1 - w0, "cpu_s": c1 - c0, "result": result}))
