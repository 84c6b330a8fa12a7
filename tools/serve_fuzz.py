#!/usr/bin/env python3
"""Seeded protocol fuzz for the abcd_serve line protocol.

Usage: tools/serve_fuzz.py PATH/TO/abcd_serve [SEED]

Loads two small graphs (scale <= 0.05), then feeds `abcd_serve --echo`
a seeded mix of every verb with known and unknown keys, whose values
are drawn from: a valid value, 0, -1, 2.5, nan, inf, 1e30, empty and
garbage.  It checks that

  - every command's first reply line starts with OK or ERR;
  - no STATUS or WAIT reply for a job on a graph with edges shows
    converged=1 blocks=0 (a converged run updates at least one block);
  - QUIT ends the session with exit status 0, and stderr carries no
    sanitizer report.

The session stays short: every WAIT carries a timeout of at most 1 s,
valid max-epochs values are at most 100, no load is larger than scale
0.05, and the service keeps its default worker and pool sizes.  Files
the TRACE, DUMP and CONV verbs write land in a temporary directory.
"""

import os
import random
import re
import subprocess
import sys
import tempfile

COMMANDS = 300
# Each key's value class "valid" draws from its list; the other classes
# are the same strings for every key.
ODD_VALUES = ["0", "-1", "2.5", "nan", "inf", "1e30", "", "x7!"]
GRAPHS = ["web", "soc"]
DATASETS = ["WT", "PS", "LJ", "TW", "SAC", "MOL", "NF"]
VALID = {
    # LOAD keys.  A scale of 2.5 is valid and builds a graph too large
    # for the time bound, so scale draws skip that value class.
    "scale": ["0.01", "0.02", "0.05"],
    "block-size": ["16", "64", "512"],
    "undirected": ["0", "1"],
    "seed": ["1", "42", "7"],
    "layout": ["plain", "compressed"],
    "reorder": ["none", "hub"],
    # RUN keys.
    "engine": ["serial", "async", "accum", "sim"],
    "tenant": ["gold", "free", "default"],
    "source": ["0", "3", "17", "100"],
    "priority": ["0", "1", "-2"],
    "timeout": ["0", "0.5", "5"],
    "cached": ["0", "1"],
    "warm": ["0", "1"],
    "tolerance": ["1e-7", "1e-4", "0.01"],
    "max-epochs": ["1", "20", "100"],
    "threads": ["1", "2", "4"],
    "schedule": ["cyclic", "priority", "random"],
}
LOAD_KEYS = ["block-size", "undirected", "seed", "layout", "reorder"]
RUN_KEYS = ["engine", "tenant", "source", "priority", "timeout", "cached",
            "warm", "tolerance", "max-epochs", "threads", "schedule"]
ALGOS = ["pr", "ppr", "sssp", "bfs", "cc", "lp"]
# WAIT without a timeout, or with a negative or huge one, waits until
# the job ends; the fuzz keeps every WAIT within 1 s.
WAIT_TIMEOUTS = ["0", "0.25", "1", "nan", "inf", "x7!"]


class Fuzzer:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.runs = 0

    def value(self, key):
        odd = ODD_VALUES
        if key == "scale":
            odd = [v for v in odd if v != "2.5"]
        if self.rng.random() < 0.8:
            return self.rng.choice(VALID[key])
        return self.rng.choice(odd)

    def params(self, keys, count):
        out = []
        for key in self.rng.sample(keys, self.rng.randint(0, count)):
            out.append("%s=%s" % (key, self.value(key)))
        if self.rng.random() < 0.05:
            out.append("bogus=%s" % self.value("seed"))
        return out

    def job_id(self):
        # Never empty: "WAIT  1" would wait on job 1 with no timeout.
        if self.rng.random() < 0.85:
            return str(self.rng.randint(1, self.runs + 1))
        return self.rng.choice([v for v in ODD_VALUES if v])

    def name(self):
        return self.rng.choice(GRAPHS if self.rng.random() < 0.9
                               else ["nope", "0", "x7!"])

    def load(self):
        src = self.rng.choice(DATASETS if self.rng.random() < 0.85
                              else ["XX", "missing.el", "2.5", "1e30"])
        # Every LOAD names a scale: the default (1.0) is too large.
        words = ["LOAD", self.name(), src, "scale=" + self.value("scale")]
        return " ".join(words + self.params(LOAD_KEYS, 3))

    def run(self):
        self.runs += 1
        algo = self.rng.choice(ALGOS if self.rng.random() < 0.9
                               else ["kcore", "0", "x7!"])
        words = ["RUN", self.name(), algo] + self.params(RUN_KEYS, 5)
        # An omitted max-epochs is the 10000-epoch default; keep most
        # runs capped.
        if not any(w.startswith("max-epochs=") for w in words) and \
                self.rng.random() < 0.8:
            words.append("max-epochs=" + self.rng.choice(
                VALID["max-epochs"]))
        return " ".join(words)

    def command(self):
        verb = self.rng.choices(
            ["RUN", "LOAD", "STATUS", "WAIT", "CANCEL", "VALUE", "GRAPHS",
             "STATS", "TENANTS", "TRACE", "METRICS", "CONV", "DUMP",
             "HELP", "FROB", "run"],
            weights=[30, 4, 12, 10, 4, 6, 2, 2, 2, 1, 1, 3, 1, 1, 1, 1])[0]
        if verb == "RUN":
            return self.run()
        if verb == "LOAD":
            return self.load()
        if verb in ("STATUS", "CANCEL"):
            return "%s %s" % (verb, self.job_id())
        if verb == "WAIT":
            return "WAIT %s %s" % (self.job_id(),
                                   self.rng.choice(WAIT_TIMEOUTS))
        if verb == "VALUE":
            return "VALUE %s %s" % (self.job_id(), self.value("source"))
        if verb == "CONV":
            files = ["", "conv.csv", "no/such/dir/conv.csv"]
            return ("CONV %s %s" % (self.job_id(),
                                    self.rng.choice(files))).strip()
        if verb in ("TRACE", "DUMP"):
            return "%s %s" % (verb, self.rng.choice(
                ["out.json", "no/such/dir/out.json"]))
        return verb


def script(seed):
    fuzz = Fuzzer(seed)
    lines = ["LOAD web WT scale=0.05", "LOAD soc PS scale=0.02 undirected=1"]
    lines += [fuzz.command() for _ in range(COMMANDS)]
    lines.append("QUIT")
    return lines


def replies(stdout):
    """Pair each echoed command with the first line of its reply."""
    out = []
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("> "):
            first = lines[i + 1] if i + 1 < len(lines) else ""
            out.append((line[2:], first))
    return out


def check(pairs, sent):
    errors = []
    if [cmd for cmd, _ in pairs] != sent:
        errors.append("echoed %d of %d commands" % (len(pairs), len(sent)))
    edges = {}       # graph name -> edge count of its latest load
    job_edges = {}   # job id -> edge count of the graph it ran on
    for cmd, first in pairs:
        words = cmd.split()
        if not (first.startswith("OK") or first.startswith("ERR")):
            errors.append("%r: first reply line %r" % (cmd, first))
            continue
        m = re.match(r"OK graph (\S+) vertices=\d+ edges=(\d+)", first)
        if m:
            edges[m.group(1)] = int(m.group(2))
        m = re.match(r"OK job (\d+)$", first)
        if m and words[0] == "RUN":
            job_edges[int(m.group(1))] = edges.get(words[1], 0)
        m = re.match(r"OK job (\d+) state=\S+ .*converged=1 .*blocks=0 ",
                     first)
        if m and words[0] in ("STATUS", "WAIT") and \
                job_edges.get(int(m.group(1)), 0) > 0:
            errors.append("%r: converged with no block update: %r"
                          % (cmd, first))
    return errors


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    binary = os.path.abspath(sys.argv[1])
    seed = int(sys.argv[2]) if len(sys.argv) == 3 else 1
    sent = script(seed)
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [binary, "--echo", "--log-level=off"], cwd=work,
            input="\n".join(sent) + "\n", capture_output=True, text=True,
            timeout=120)
    errors = check(replies(proc.stdout), sent)
    if proc.returncode != 0:
        errors.append("exit status %d" % proc.returncode)
    for marker in ("AddressSanitizer", "LeakSanitizer", "runtime error",
                   "ThreadSanitizer"):
        if marker in proc.stderr:
            errors.append("stderr carries a %s report" % marker)
    if errors:
        sys.stderr.write(proc.stderr[-4000:])
        for error in errors:
            print("serve fuzz: " + error)
        sys.exit(1)
    ok = sum(1 for _, first in replies(proc.stdout)
             if first.startswith("OK"))
    print("serve fuzz ok: seed %d, %d commands, %d OK replies"
          % (seed, len(sent), ok))


if __name__ == "__main__":
    main()
