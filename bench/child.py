"""Traced CLI child: ``python bench/child.py SPANS_OUT KIND -- <maxcorr args>``.

Runs ``maxcorr.cli.main`` with every maxcorr function wrapped, writes the
recorded spans to SPANS_OUT as JSON and exits with the CLI's exit code.  The
untraced runs start ``python -m maxcorr.cli`` instead.
"""

import json
import sys

import maxcorr.cli
from spans import Tracer


def main() -> int:
    out_path, kind, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_OUT KIND -- ARGS...")
    tracer = Tracer()
    tracer.install()
    code = tracer.run_op(0, kind, lambda: maxcorr.cli.main(argv))
    with open(out_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
