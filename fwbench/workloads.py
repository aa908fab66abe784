"""The three workloads: their inputs, their jobs and their checks.

Each workload builds its inputs from the seed in `setup` (the program
gets only those inputs), runs one round of jobs in `run_round`, and
counts failed jobs in `check`, after the timed region, against
`checks.py`.  Every round is the same multiset of jobs, so job-latency
percentiles do not depend on how many rounds fit in a run.
"""

from __future__ import annotations

import glob
import io
import json
import os
import random

# layers are called through their modules, so that the wrappers that
# tracing.py installs there are the ones that run
from fwdiff import cli, fwcore, localalg, ringfile
from fwdiff.modarith import GaloisField, PrimeField, PrimeSquareRing
from fwdiff.mpoly import PolyRing

HERE = os.path.dirname(os.path.abspath(__file__))


def _ring_files(kind):
    return sorted(glob.glob(os.path.join(HERE, "rings", kind, "*.ring")))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ringfile.parse_ring(fh.read())


class Oracle:
    """`fwdiff oracle --json` through `cli.run`, one job per ring file."""

    name = "oracle"
    tail_pct = 75      # 41 jobs a round: at least 10 beyond p75
    min_jobs = 41
    trace_rounds = 1

    def setup(self, seed):
        files = _ring_files("oracle")
        for path in files:
            _parse(path)  # the inputs must parse before any job runs
        random.Random(seed).shuffle(files)
        return {"argv": [["oracle", "-i", f, "--json", "--seed", str(seed)]
                         for f in files]}

    @staticmethod
    def _oracle(argv):
        out, err = io.StringIO(), io.StringIO()
        rc = cli.run(argv, out=out, err=err)
        return rc, out.getvalue()

    def run_round(self, state, r, job):
        for argv in state["argv"]:
            job(argv[2], self._oracle, argv)

    def check(self, state, outputs):
        from checks import oracle_expectation

        expect = {}
        failed = 0
        for _r, path, result in outputs:
            if result is None:
                failed += 1
                continue
            rc, text = result
            if path not in expect:
                expect[path] = oracle_expectation(path)
            size, closed = expect[path]
            try:
                res = json.loads(text)["result"] if rc == 0 else None
            except ValueError:
                res = None
            ok = (res is not None and res["match"] is True
                  and res["size"] == size
                  and res["brute_dim"] == res["presented_dim"]
                  and closed in (None, res["brute_dim"]))
            failed += not ok
        return failed


# ring file stem -> (dimension of the ring, fields swept, --flat)
SWEEP_RINGS = {
    "cusp5": (1, (1, 2), False),
    "node3": (1, (1, 2), False),
    "ell7": (1, (1, 2), False),
    "sphere3": (2, (1, 2), False),
    "cone3": (2, (1, 2), False),
    "fermat2": (2, (1, 2), False),
    "cayley2": (2, (1, 2), False),
    # over F_4 this ring alone has 316 points and 3 s of verdicts, more
    # than the rest of the round together
    "minors2": (4, (1,), False),
    # carrier dimension 1, plus 1 for the asserted flatness over Z_(3)
    "parabola9": (2, (1, 2), True),
}


class Sweep:
    """scripts/sweep_points.py traffic: every point, one verdict each."""

    name = "sweep"
    tail_pct = 99      # 380 jobs a round and at least 3 rounds a run
    min_jobs = 1000
    trace_rounds = 1

    def setup(self, seed):
        pairs = []
        for path in _ring_files("sweep"):
            stem = os.path.basename(path)[:-5]
            dim, degrees, flat = SWEEP_RINGS[stem]
            pres = _parse(path)
            for e in degrees:
                fld = PrimeField(pres.p) if e == 1 else GaloisField(pres.p, e)
                pairs.append((stem, pres, fld, flat))
        if {p[0] for p in pairs} != set(SWEEP_RINGS):
            raise FileNotFoundError("sweep ring files missing")
        random.Random(seed).shuffle(pairs)
        return {"pairs": pairs, "points": {}}

    def run_round(self, state, r, job):
        for i, (_stem, pres, fld, flat) in enumerate(state["pairs"]):
            pts = localalg.rational_points(pres, fld)
            state["points"][r, i] = pts
            for x in pts:
                job((i, x), self._verdict, pres, x, flat)

    @staticmethod
    def _verdict(pres, x, flat):
        v = localalg.regularity(pres, x, flat=flat)
        return v.verdict, v.fiber_dim

    def check(self, state, outputs):
        from checks import sweep_expectation

        def coords(x):
            return tuple(c.value if isinstance(c.value, tuple) else (c.value,)
                         for c in x.coordinates)

        expect = {}
        for i, (stem, _pres, fld, flat) in enumerate(state["pairs"]):
            minpoly = getattr(fld, "minpoly", (0, 1))
            path = os.path.join(HERE, "rings", "sweep", stem + ".ring")
            expect[i] = sweep_expectation(path, minpoly, SWEEP_RINGS[stem][0],
                                          flat)
        bad = {key for key, pts in state["points"].items()
               if sorted(map(coords, pts)) != sorted(expect[key[1]])}
        failed = 0
        for r, (i, x), result in outputs:
            failed += (r, i) in bad or expect[i].get(coords(x)) != result
        return failed


# (p, nvars) -> trials per block, chosen so that every block costs about
# the same (~60 ms on a 2.1 GHz Xeon); equal blocks keep the percentiles off
# the boundaries between configurations
AXIOM_TRIALS = {
    (2, 1): 300, (2, 2): 200, (2, 3): 180,
    (3, 1): 240, (3, 2): 120, (3, 3): 120,
    (5, 1): 120, (5, 2): 40, (5, 3): 36,
}
AXIOM_SAMPLES = 2  # pairs per block re-checked by the benchmark


class Axioms:
    """check_axioms blocks with stepped seeds over p in {2,3,5}, nvars 1-3."""

    name = "axioms"
    tail_pct = 90      # 9 jobs a round and at least 12 rounds a run
    min_jobs = 108
    trace_rounds = 4

    def setup(self, seed):
        configs = sorted(AXIOM_TRIALS)
        random.Random(seed).shuffle(configs)
        return {"configs": configs, "seed": seed}

    def run_round(self, state, r, job):
        n = len(state["configs"])
        for i, (p, nvars) in enumerate(state["configs"]):
            block_seed = state["seed"] * 1_000_003 + r * n + i
            job((p, nvars, block_seed), self._block, p, nvars, block_seed)

    @staticmethod
    def _block(p, nvars, block_seed):
        rep = fwcore.check_axioms(p, nvars, trials=AXIOM_TRIALS[p, nvars],
                                  seed=block_seed)
        return rep.describe()["passed"], rep.trials

    def check(self, state, outputs):
        from checks import axiom_pair_ok, random_pair

        failed = 0
        for _r, (p, nvars, block_seed), result in outputs:
            if result is None:
                failed += 1
                continue
            passed, trials = result
            ring = PolyRing(PrimeSquareRing(p), [f"x{i + 1}" for i in range(nvars)])

            def w_vector(h):
                vec = fwcore.w_poly(ring.poly({m: ring.coeff.of_int(c)
                                               for m, c in h.items()}))
                return [{m: c.value for m, c in v.terms.items()} for v in vec]

            rng = random.Random(f"axiom-sample-{block_seed}")
            ok = trials == AXIOM_TRIALS[p, nvars] and passed == trials
            for _ in range(AXIOM_SAMPLES):
                f, g = random_pair(rng, p, nvars)
                ok = ok and axiom_pair_ok(w_vector, f, g, p, nvars)
            failed += not ok
        return failed


WORKLOADS = {w.name: w for w in (Oracle(), Sweep(), Axioms())}
