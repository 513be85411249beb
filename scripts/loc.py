#!/usr/bin/env python3
"""Counts the non-generated C++ source lines of each top-level directory.

Run from anywhere inside the repository:

    python3 scripts/loc.py              # the working tree
    python3 scripts/loc.py --rev HEAD~1 # a git revision

Counts the lines of every .cpp and .hpp file under src, tools, tests,
bench, perfbench and examples, skipping any path under a directory named
`generated` (ffgen's output in src/proto/generated/ and ff-lint's fixture
copy of it).  The working tree means the files git tracks or would track:
ignored build output is not counted.
"""

import argparse
import subprocess
import sys
import tarfile
from pathlib import Path, PurePosixPath

DIRS = ("src", "tools", "tests", "bench", "perfbench", "examples")
SUFFIXES = (".cpp", ".hpp")


def counted(path: str) -> bool:
    p = PurePosixPath(path)
    return (p.suffix in SUFFIXES and p.parts[0] in DIRS
            and "generated" not in p.parts[:-1])


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def tree_counts(root: Path) -> dict:
    counts = dict.fromkeys(DIRS, 0)
    listed = git(root, "ls-files", "--cached", "--others",
                 "--exclude-standard", "-z", "--", *DIRS)
    for name in sorted(set(listed.decode().split("\0"))):
        path = root / name
        if name and counted(name) and path.is_file():
            counts[PurePosixPath(name).parts[0]] += (
                path.read_bytes().count(b"\n"))
    return counts


def rev_counts(root: Path, rev: str) -> dict:
    counts = dict.fromkeys(DIRS, 0)
    proc = subprocess.Popen(["git", "-C", str(root), "archive",
                             "--format=tar", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        for member in tar:
            if member.isfile() and counted(member.name):
                data = tar.extractfile(member).read()
                counts[PurePosixPath(member.name).parts[0]] += (
                    data.count(b"\n"))
    if proc.wait():
        sys.exit(f"loc.py: git archive {rev} failed")
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="count this git revision instead of "
                        "the working tree")
    args = parser.parse_args()
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode()
                .strip())
    counts = rev_counts(root, args.rev) if args.rev else tree_counts(root)
    for name in DIRS:
        print(f"{name:<10} {counts[name]:>7,}")
    print(f"{'total':<10} {sum(counts.values()):>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
