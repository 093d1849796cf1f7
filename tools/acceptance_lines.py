"""Run one source tree's acceptance gate and print its PASS/FAIL lines, with
the wall-time figures masked, for line-identity checks between trees.

    python tools/acceptance_lines.py --tree TREE

It runs `pytest -m acceptance -s` on TREE/tests, with TREE as the working
directory (so TREE's pytest settings apply) and PYTHONPATH=TREE/src. Each
criterion's "[PASS] ..." or "[FAIL] ..." line is printed in the order the
gate prints them, every "<seconds>s (<" and "<minutes> min (<" figure
replaced by "#". Run it once per tree and compare the two outputs. The exit
code is 0 when the gate ran, whether or not each criterion passed, and
pytest's own code otherwise (a collection error, for one).
"""

import argparse
import os
import re
import subprocess
import sys

# a measured duration: the figure in front of "s (<limit" or " min (<limit"
WALL_TIME = re.compile(r"\d+(?:\.\d+)?(?=(?:s| min) \(<)")
LINE = re.compile(r"^\[(?:PASS|FAIL)\] ")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="a source tree with src/ and tests/")
    args = parser.parse_args(argv)

    tree = os.path.abspath(args.tree)
    if not os.path.isfile(os.path.join(tree, "tests", "test_acceptance.py")):
        print(f"error: no tests/test_acceptance.py under {tree}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "acceptance", "-s", "-q",
         "-p", "no:cacheprovider", "tests"],
        cwd=tree, env=env, capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        if LINE.match(line):
            print(WALL_TIME.sub("#", line))
    if proc.returncode not in (0, 1):  # 1: a criterion failed
        print(f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr}",
              file=sys.stderr)
        return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
