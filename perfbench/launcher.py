"""Traced child for one cli command: ``tmcat.cli.main(argv)`` layer by layer.

Usage: launcher.py SPANS_OUT SPAWN_TIME ARGV...

SPAWN_TIME is the parent's ``perf_counter`` just before it started this
process; the ``setup`` span runs from it until ``import tmcat.cli`` is done.
The spans go to SPANS_OUT as JSON; the exit code is main's.
"""

import json
import sys

import spans

tracer = spans.Tracer()
setup = tracer.open("setup", "interpreter start and import tmcat", start=float(sys.argv[2]))
import tmcat.cli  # noqa: E402

tracer.close(setup)
try:
    with spans.installed(tracer):
        code = tmcat.cli.main(sys.argv[3:])
    if code != 0:  # main reports failures by exit code, not by raising
        next(s for s in tracer.spans if s[spans.NAME] == "main")[spans.ERROR] = True
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
