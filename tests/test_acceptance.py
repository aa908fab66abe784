"""End-to-end acceptance: ten criteria, one visible line each.

Every test prints `criterion NN [PASS/FAIL] name` outside pytest's
capture before asserting, so the per-criterion status is always visible
in the terse run too.
"""

import json
import os
import random
import subprocess
import sys

from fwdiff.fwcore import (
    RingPresentation,
    check_axioms,
    present_fw,
)
from fwdiff.localalg import PointSpec, PrimeSpec, rational_points, regularity
from fwdiff.modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    reduce_mod_p,
)
from fwdiff.mpoly import (
    PolyRing,
    SparsePoly,
    frobenius_twist,
    witt_P_pair,
    witt_Q,
)
from fwdiff.oracle import cross_check
from fwdiff.ringfile import parse_ring
from routes import (check_prdx, check_split_sequence, derivative,
                    random_poly, random_scalar, w_poly_charp, witt_R)

RINGS = os.path.join(os.path.dirname(__file__), os.pardir, "rings")


def _ring_path(name):
    return os.path.join(RINGS, name)


def _criterion(capsys, num, name, check):
    try:
        check()
        failure = None
    except BaseException as e:  # report the line before propagating
        failure = e
    with capsys.disabled():
        status = "PASS" if failure is None else "FAIL"
        print(f"criterion {num:2d} [{status}] {name}")
    if failure is not None:
        raise failure


def _pres(base, varnames, rels):
    return RingPresentation(base, tuple(varnames), tuple(rels))


def _parse(path):
    with open(path) as fh:
        return parse_ring(fh.read())


# ---------------------------------------------------------------------------

def test_criterion_01_axioms(capsys):
    def check():
        for p in (2, 3, 5):
            for nvars in (1, 2, 3):
                rep = check_axioms(p, nvars, trials=500, seed=0)
                assert rep.passed, rep.describe()

    _criterion(capsys, 1, "derivation axioms, 500 trials x 9 configurations",
               check)


def test_criterion_02_witt_carry_identities(capsys):
    def check():
        for p in (2, 3):
            rng = random.Random(200 + p)
            ring = PolyRing(PrimeSquareRing(p), ("X", "Y"))
            for _ in range(100):
                f = random_poly(rng, ring, max_terms=3, max_degree=2)
                g = random_poly(rng, ring, max_terms=3, max_degree=2)
                assert f**p == frobenius_twist(f) + witt_Q(f) * p
                assert witt_Q(f + g) == \
                    witt_Q(f) + witt_Q(g) + witt_P_pair(f, g) - witt_R(f, g)

    _criterion(capsys, 2, "Witt carry identities for p-th powers", check)


def test_criterion_03_oracle_cross_checks(capsys):
    def check():
        zp2_one = []
        fq_zero = []
        cases = [
            (_pres(PrimeSquareRing(2), (), ()), zp2_one),
            (_pres(PrimeSquareRing(3), (), ()), zp2_one),
            (_pres(PrimeField(2), ("x",), (_x_power(PrimeField(2), 2),)), None),
            (_pres(PrimeField(2), ("x",), (_x_power(PrimeField(2), 3),)), None),
            (_pres(PrimeField(3), ("x",), (_x_power(PrimeField(3), 2),)), None),
            (_pres(PrimeSquareRing(2), ("x",),
                   _mixed_rels(PrimeSquareRing(2))), None),
            (_pres(GaloisField(2, 2), (), ()), fq_zero),
            (_pres(GaloisField(3, 2), (), ()), fq_zero),
        ]
        for pres, bucket in cases:
            rep = cross_check(present_fw(pres))
            assert rep["match"], rep
            if bucket is not None:
                bucket.append(rep["brute_dim"])
        assert zp2_one == [1, 1]
        assert fq_zero == [0, 0]

    _criterion(capsys, 3, "brute-force oracle matches presented dimensions",
               check)


def _x_power(k, n):
    ring = PolyRing(k, ("x",))
    return ring.gen(0) ** n


def _mixed_rels(R):
    ring = PolyRing(R, ("x",))
    x = ring.gen(0)
    return (x**2, x * 2)


def test_criterion_04_cusp_sweep(capsys):
    def check():
        cusp = _parse(_ring_path("cusp.ring"))
        v0 = regularity(cusp, PointSpec.of(cusp, (0, 0)))
        v1 = regularity(cusp, PointSpec.of(cusp, (1, 1)))
        assert (v0.verdict, v0.fiber_dim) == ("NotRegular", 2)
        assert (v1.verdict, v1.fiber_dim) == ("Regular", 1)
        f = cusp.relations_mod_p()[0]
        pts = rational_points(cusp, GaloisField(5, 2))
        assert len(pts) == 25
        for x in pts + rational_points(cusp):
            fld = x.field
            grad = [derivative(f, j).evaluate(x.coordinates, fld)
                    for j in range(2)]
            smooth = any(not g.is_zero() for g in grad)
            got = regularity(cusp, x).verdict
            assert got == ("Regular" if smooth else "NotRegular"), x.describe()

    _criterion(capsys, 4, "cusp verdicts and Jacobian sweep", check)


def test_criterion_05_point_consistency(capsys):
    def check():
        line = _pres(PrimeField(5), ("x",), ())
        cusp = _parse(_ring_path("cusp.ring"))
        node = _parse(_ring_path("node.ring"))
        zp2x = _parse(_ring_path("zp2x.ring"))
        parab = _parse(_ring_path("parabola_p.ring"))
        cases = [
            (line, [PrimeField(5), GaloisField(5, 2)]),
            (cusp, [PrimeField(5), GaloisField(5, 2)]),
            (node, [PrimeField(5), GaloisField(5, 2)]),
            (zp2x, [PrimeField(2), GaloisField(2, 2),
                    GaloisField(2, 3), GaloisField(2, 4)]),
            (parab, [PrimeField(3), GaloisField(3, 2)]),
        ]
        total = 0
        for pres, fields in cases:
            for fld in fields:
                pts = rational_points(pres, fld)
                assert pts, (pres.describe(), fld.tag())
                for x in pts:
                    rep = check_prdx(pres, x)
                    assert rep["consistent"], (pres.describe(), rep)
                    total += 1
        assert total > 100

    _criterion(capsys, 5, "fiber equals cotangent dimension at closed points",
               check)


def _shift_into(f, bigring):
    """Reinterpret f in a ring with one extra trailing variable."""
    return SparsePoly(bigring, {m + (0,): c for m, c in f.terms.items()})


def test_criterion_06_localization_invariance(capsys):
    def check():
        rng = random.Random(2026)
        charp_bases = [PrimeField(2), PrimeField(3), PrimeField(5),
                       GaloisField(2, 2)]
        done = 0
        while done < 40:
            k = charp_bases[done % len(charp_bases)]
            nv = rng.randint(1, 2)
            variables = ("x", "y")[:nv]
            ring = PolyRing(k, variables)
            coords = tuple(random_scalar(rng, k) for _ in range(nv))
            g = random_poly(rng, ring, max_terms=3, max_degree=2)
            f = g - ring.constant(g.evaluate(coords, k))
            rels = () if f.is_zero() else (f,)
            pres = RingPresentation(k, variables, rels)
            u = None
            for _ in range(25):
                cand = random_poly(rng, ring, max_terms=2, max_degree=2)
                if not cand.evaluate(coords, k).is_zero():
                    u = cand
                    break
            if u is None:
                continue
            lring = PolyRing(k, variables + ("s",))
            s = lring.gen(nv)
            loc_rels = tuple(_shift_into(h, lring) for h in rels) \
                + (s * _shift_into(u, lring) - lring.one(),)
            loc = RingPresentation(k, variables + ("s",), loc_rels)
            xa = PointSpec(pres, coords)
            xl = PointSpec(loc, coords + (u.evaluate(coords, k).inv(),))
            va, vl = regularity(pres, xa), regularity(loc, xl)
            assert (va.verdict, va.fiber_dim, va.d, va.r) == \
                (vl.verdict, vl.fiber_dim, vl.d, vl.r), \
                (pres.describe(), str(u), va.describe(), vl.describe())
            done += 1
        done = 0
        while done < 10:
            p = (2, 3)[done % 2]
            R = PrimeSquareRing(p)
            kf = PrimeField(p)
            nv = rng.randint(1, 2)
            variables = ("x", "y")[:nv]
            ring = PolyRing(R, variables)
            cbar = tuple(kf.of_int(rng.randrange(p)) for _ in range(nv))
            lifts = tuple(R.of_int(c.value) for c in cbar)
            g = random_poly(rng, ring, max_terms=3, max_degree=2)
            f = g - ring.constant(g.evaluate(lifts, R))
            rels = () if f.is_zero() else (f,)
            pres = RingPresentation(R, variables, rels)
            u = None
            for _ in range(25):
                cand = random_poly(rng, ring, max_terms=2, max_degree=2)
                cbar_val = cand.map_coeffs(kf, reduce_mod_p) \
                               .evaluate(cbar, kf)
                if not cbar_val.is_zero():
                    u, uval = cand, cbar_val
                    break
            if u is None:
                continue
            lring = PolyRing(R, variables + ("s",))
            s = lring.gen(nv)
            loc_rels = tuple(_shift_into(h, lring) for h in rels) \
                + (s * _shift_into(u, lring) - lring.one(),)
            loc = RingPresentation(R, variables + ("s",), loc_rels)
            xa = PointSpec(pres, cbar)
            xl = PointSpec(loc, cbar + (uval.inv(),))
            va = regularity(pres, xa, flat=True)
            vl = regularity(loc, xl, flat=True)
            assert (va.verdict, va.fiber_dim, va.d, va.r) == \
                (vl.verdict, vl.fiber_dim, vl.d, vl.r), \
                (pres.describe(), str(u), va.describe(), vl.describe())
            done += 1

    _criterion(capsys, 6, "localization invariance of verdicts and fibers",
               check)


def test_criterion_07_columns_vs_twisted_jacobian(capsys):
    def check():
        bases = [PrimeField(2), PrimeField(3), PrimeField(5),
                 GaloisField(2, 2), GaloisField(3, 2)]
        rng = random.Random(7)
        for i in range(100):
            k = bases[i % len(bases)]
            nv = rng.randint(1, 3)
            variables = ("x", "y", "z")[:nv]
            ring = PolyRing(k, variables)
            rels = []
            for _ in range(rng.randint(0, 2)):
                f = random_poly(rng, ring, max_terms=3, max_degree=2)
                if not f.is_zero():
                    rels.append(f)
            pres = RingPresentation(k, variables, tuple(rels))
            fw = present_fw(pres)
            gb = pres.carrier_basis()
            for col, f in zip(fw.columns, pres.relations):
                direct = tuple(gb.normal_form(e) for e in w_poly_charp(f))
                assert col == direct, (pres.describe(), str(f))

    _criterion(capsys, 7, "columns equal twisted Jacobians after normal form",
               check)


def _graph_pair(rng, base, nv, s, charp):
    """A free presentation plus s graph relations eliminating the last
    s variables, and a point on the graph."""
    variables = ("x", "y", "z")[:nv]
    ring = PolyRing(base, variables)
    free = nv - s
    quots = []
    for j in range(free, nv):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            m = [0] * nv
            for i in range(free):
                m[i] = rng.randint(0, 2)
            terms[tuple(m)] = random_scalar(rng, base)
        q = ring.poly(terms)
        quots.append(ring.gen(j) - q)
    pres = RingPresentation(base, variables, ())
    k = pres.residue_field
    fcoords = [random_scalar(rng, k) for _ in range(free)]
    coords = list(fcoords) + [k.zero()] * s
    for j in range(free, nv):
        qbar = quots[j - free] if charp else \
            quots[j - free].map_coeffs(k, reduce_mod_p)
        gap = qbar.evaluate(tuple(coords), k)
        # gap = c_j - q(coords); solve c_j = q(coords)
        coords[j] = coords[j] - gap
    return pres, tuple(quots), PointSpec(pres, tuple(coords))


def test_criterion_08_split_sequences(capsys):
    def check():
        rng = random.Random(88)
        runs = 0
        for i in range(14):
            base = [PrimeField(5), PrimeField(3), PrimeField(2),
                    GaloisField(2, 2)][i % 4]
            nv = rng.choice([2, 3])
            s = 1 if nv == 2 else rng.choice([1, 2])
            pres, quots, x = _graph_pair(rng, base, nv, s, charp=True)
            rep = check_split_sequence(pres, quots, x)
            assert rep["hypothesis_ok"] and rep["consistent"], rep
            assert (rep["fiber_A"], rep["s_prime"], rep["fiber_B"]) == \
                (nv, s, nv - s)
            runs += 1
        for i in range(6):
            base = PrimeSquareRing((2, 3)[i % 2])
            nv = rng.choice([2, 3])
            s = 1 if nv == 2 else rng.choice([1, 2])
            pres, quots, x = _graph_pair(rng, base, nv, s, charp=False)
            rep = check_split_sequence(pres, quots, x, flat=True)
            assert rep["hypothesis_ok"] and rep["consistent"], rep
            assert (rep["fiber_A"], rep["s_prime"], rep["fiber_B"]) == \
                (nv + 1, s, nv + 1 - s)
            runs += 1
        assert runs == 20

    _criterion(capsys, 8, "split-sequence rank additivity on regular pairs",
               check)


def test_criterion_09_height_one_prime(capsys):
    def check():
        plane = _pres(PrimeField(5), ("x", "y"), ())
        cring = plane.carrier_ring
        P = PrimeSpec(plane, (cring.gen(1),))
        v = regularity(plane, P)
        assert (v.verdict, v.fiber_dim, v.d, v.r) == ("Regular", 2, 1, 1), \
            v.describe()

    _criterion(capsys, 9, "height-one prime of the plane: d=1, r=1, fiber 2",
               check)


def test_criterion_10_json_determinism(capsys):
    def check():
        import io
        from fwdiff.cli import run

        argvs = [
            ["regular", "-i", _ring_path("cusp.ring"),
             "--point", "0,0", "--seed", "11", "--json"],
            ["present", "-i", _ring_path("conic_f9.ring"),
             "--seed", "11", "--json"],
            ["oracle", "-i", _ring_path("zp2.ring"),
             "--seed", "11", "--json"],
            ["axioms", "--p", "2", "--nvars", "2",
             "--trials", "50", "--seed", "3", "--json"],
        ]
        for argv in argvs:
            texts = []
            for _ in range(2):
                out = io.StringIO()
                assert run(argv, out=out, err=io.StringIO()) == 0
                texts.append(out.getvalue())
            assert texts[0] == texts[1]
            json.loads(texts[0])  # well-formed
            subs = []
            for hashseed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=hashseed)
                r = subprocess.run(
                    [sys.executable, "-m", "fwdiff.cli"] + argv,
                    capture_output=True, env=env)
                assert r.returncode == 0, r.stderr
                subs.append(r.stdout)
            assert subs[0] == subs[1] == texts[0].encode(), argv

    _criterion(capsys, 10, "byte-identical JSON under a fixed seed", check)
