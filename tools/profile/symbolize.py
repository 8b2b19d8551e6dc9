#!/usr/bin/env python3
"""Turn a sampler.c dump into per-function shares.

    python3 symbolize.py sampler.<pid>.txt [--top 25] [--callers NAME]

Prints, over all samples:
  * self: the function the sample landed in;
  * inclusive: every function on the sample's stack, once per sample;
  * with --callers NAME: who called the innermost frame whose function
    name contains NAME.

Addresses are mapped to files through the dump's copy of /proc/self/maps,
to each file's virtual addresses through its LOAD segments (`readelf -lW`)
and to names through `nm` (the static symbol table, else the dynamic one;
a stripped library's internal functions therefore show up under the
nearest exported name). Return addresses are looked up one byte early, so
a call at a function's end is not charged to the next function.
"""

import argparse
import bisect
import collections
import re
import subprocess

HASH = re.compile(r"::h[0-9a-f]{16}$")


class Image:
    """The function symbols of one ELF file."""

    def __init__(self, path):
        self.loads = []  # (file offset, virtual address, file size)
        text = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
        for line in text.splitlines():
            f = line.split()
            if f and f[0] == "LOAD":
                self.loads.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
        syms = {}
        for flag in ([], ["-D"]):
            out = subprocess.run(
                ["nm", "-C", "--defined-only", *flag, path], capture_output=True, text=True
            ).stdout
            for line in out.splitlines():
                f = line.split(" ", 2)
                if len(f) == 3 and f[1] in "TtWw" and f[0]:
                    syms.setdefault(int(f[0], 16), HASH.sub("", f[2]))
            if syms:
                break
        self.addrs = sorted(syms)
        self.names = [syms[a] for a in self.addrs]

    def name(self, file_offset, path):
        for off, vaddr, size in self.loads:
            if off <= file_offset < off + size:
                i = bisect.bisect_right(self.addrs, vaddr + file_offset - off) - 1
                if i >= 0:
                    return self.names[i]
        return "?" + path.rsplit("/", 1)[-1]


def read(path):
    stacks, maps, in_maps = [], [], False
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                in_maps = True
            elif line.startswith("#"):
                continue
            elif in_maps:
                f6 = line.split(None, 5)
                lo, hi = (int(x, 16) for x in f6[0].split("-"))
                name = f6[5].strip() if len(f6) == 6 else ""
                maps.append((lo, hi, int(f6[2], 16), name))
            elif line.strip():
                stacks.append([int(w, 16) for w in line.split()])
    maps.sort()
    return stacks, maps


def symbolizer(maps):
    starts = [m[0] for m in maps]
    images, cache = {}, {}

    def name(addr):
        if addr in cache:
            return cache[addr]
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            result = "?"
        else:
            lo, _, offset, path = maps[i]
            if not path.startswith("/"):
                result = path or "?anon"
            else:
                if path not in images:
                    images[path] = Image(path)
                result = images[path].name(addr - lo + offset, path)
        cache[addr] = result
        return result

    return name


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--callers", metavar="NAME")
    args = ap.parse_args()

    stacks, maps = read(args.dump)
    name = symbolizer(maps)
    named = [[name(a if k == 0 else a - 1) for k, a in enumerate(s)] for s in stacks]
    total = len(named)
    if total == 0:
        print("no samples")
        return
    whole = sum(1 for s in named if any(n == "main" or n.endswith("::main") for n in s))
    print(f"{total} samples; {100 * whole / total:.1f} % of stacks reach main")

    def table(title, counts, of):
        print(f"\n{title}")
        for fn, n in counts.most_common(args.top):
            print(f"{100 * n / of:6.2f} %  {fn}")

    table("self", collections.Counter(s[0] for s in named), total)
    table("inclusive", collections.Counter(fn for s in named for fn in set(s)), total)
    if args.callers:
        callers, hits = collections.Counter(), 0
        for s in named:
            k = next((k for k, fn in enumerate(s) if args.callers in fn), None)
            if k is not None:
                hits += 1
                callers[s[k + 1] if k + 1 < len(s) else "<stack ends>"] += 1
        table(
            f"callers of *{args.callers}* ({hits} samples, {100 * hits / total:.1f} % of all)",
            callers,
            max(hits, 1),
        )


if __name__ == "__main__":
    main()
