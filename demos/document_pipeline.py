"""Round-trip a space document and drive the CLI in-process.

Writes a metric document for a three-cluster space, parses it back, and runs
the same subcommands the console script exposes, twice, to show that the
reports are byte-identical.
"""

import json
import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from coarsehom import emit_space_text, parse_space, run


DOC = {
    "kind": "metric",
    "points": ["a1", "a2", "b1", "b2", "c1"],
    "distances": [
        [],
        ["1"],
        ["10", "10"],
        ["10", "10", "1"],
        ["20", "20", "10", "10"],
    ],
    "scales": ["3/2", "21/2"],
}


def capture(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        rep, code = run(argv)
    return rep, code, buf.getvalue()


def main():
    X = parse_space(json.dumps(DOC))
    print("parsed:", X)
    print("round-trip document:")
    print(emit_space_text(X), end="")

    # the commands run inside the temporary directory and name the document relative to it,
    # so the reports, which echo the command line, print the same bytes on every run
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as td:
        Path(td, "clusters.json").write_text(json.dumps(DOC))
        os.chdir(td)
        try:
            for argv in (
                ["components", "--space", "clusters.json"],
                ["homology", "--space", "clusters.json", "--scale", "1", "--max-dim", "1"],
                ["homology", "--space", "clusters.json", "--colimit", "--max-dim", "1"],
                ["qhomology", "--space", "clusters.json", "--scales", "1,2", "--max-dim", "1"],
            ):
                _, code, out1 = capture(argv)
                _, _, out2 = capture(argv)
                print(f"\n$ coarsehom {' '.join(argv)}   (exit {code},"
                      f" double run identical: {out1 == out2})")
                print(out1, end="")
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
