"""Time one set-up in a fresh interpreter: import skygrid, build the scenario,
construct the World. Reads the request spec as JSON on stdin, takes the
source directory as its argument and prints the seconds taken."""

import json
import sys
import time

spec = json.loads(sys.stdin.read())
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from skygrid import scenario, sim  # noqa: E402

if "text" in spec:
    sc = scenario.load_scenario(spec["text"])
else:
    cell = spec["cell"]
    sc = scenario.single_cell_scenario(seed=cell["seed"], start=tuple(cell["start"]), goal=tuple(cell["goal"]))
sim.World(sc, sim.Mode(sc.mode))
print(repr(time.perf_counter() - t0))
