"""Certificate corpus: every identity and sign certificate, exact links,
numeric guards, and failure localisation."""

import dataclasses
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

import curlsharp
from curlsharp import certificates as certs
from curlsharp import constants
from curlsharp import polyfamily as pf
from curlsharp.constants import Params, alpha, rellich_hardy_C
from curlsharp.nonneg import IntervalQ, nonneg_on_interval
from curlsharp.poly import VARS, MultiPoly, parse_poly


def test_full_suite_passes():
    suite = certs.run_suite()
    bad = [r for r in suite.reports + suite.structural if not r.ok]
    assert not bad, [f"{r.name}: {r.detail}" for r in bad]
    passed, total = suite.counts
    assert passed == total >= 70


def test_suite_is_deterministic():
    a = [(r.name, r.ok) for r in certs.run_suite().reports]
    b = [(r.name, r.ok) for r in certs.run_suite().reports]
    assert a == b


def test_every_corpus_file_has_reference():
    corpus = certs.load_corpus()
    names = {c.name for c in corpus}
    missing = names - set(certs.REFERENCES)
    assert not missing
    unused = set(certs.REFERENCES) - names
    assert not unused
    # every name sits in exactly one regime
    home = {}
    for regime, members in certs.REGIMES.items():
        for name in members:
            assert name not in home, (name, home.get(name), regime)
            home[name] = regime
    assert set(home) == names


@pytest.mark.parametrize("regime,count", [
    pytest.param("base", 8, id="base-8"),
    pytest.param("le1", 18, id="certify_regime_le1-18"),
    pytest.param("gt1-nge3", 23, id="certify_regime_gt1_nge3-23"),
    pytest.param("n2", 11, id="certify_regime_n2-11"),
    pytest.param("section5", 9, id="verify_section5_identities-9"),
])
def test_grouped_operations(regime, count):
    reports = certs.run_suite([regime]).reports
    assert len(reports) == count
    assert all(r.ok for r in reports), [r.name for r in reports if not r.ok]


def _base_report(name):
    return next(r for r in certs.run_suite(["base"]).reports if r.name == name)


def test_qp1_identity_symbolic_and_spot():
    assert _base_report("qp1-identity").ok
    # numeric spot check at (tau, a, lam, N) = (1, 2, 1/2, 3)
    point = {"tau": F(1), "a": F(2), "lam": F(1, 2), "N": F(3)}
    p1 = pf.p1()
    q1 = pf.q1()
    p1z, q1z = p1.subs("tau", 0), q1.subs("tau", 0)
    lhs = (q1 * p1z - q1z * p1 - pf.TAU * p1 * p1z).eval(point)
    rhs = (pf.TAU * (2 * pf.LAM + pf.N - 2)
           * (pf.g0() + pf.g1() * pf.TAU)).eval(point)
    assert lhs == rhs
    # tau = 0 slice: both sides vanish
    zero = {"tau": F(0), "a": F(5), "lam": F(2), "N": F(4)}
    assert (q1 * p1z - q1z * p1 - pf.TAU * p1 * p1z).eval(zero) == 0


def test_q0p0_identity_numeric():
    assert _base_report("q0p0-identity").ok
    # (tau, lam, N) = (2, 1, 3): LHS = 36 = (3-1)(2+1)^2 * 2
    point = {"tau": F(2), "lam": F(1), "N": F(3)}
    p0, q0 = pf.p0(), pf.q0()
    lhs = (q0 * p0.subs("tau", 0) - q0.subs("tau", 0) * p0
           - pf.TAU * p0 * p0.subs("tau", 0)).eval(point)
    assert lhs == 36
    # factor 2 lam + N - 2 vanishes at lam = 1 - N/2
    point = {"tau": F(3), "lam": F(1) - F(5, 2), "N": F(5)}
    lhs = (q0 * p0.subs("tau", 0) - q0.subs("tau", 0) * p0
           - pf.TAU * p0 * p0.subs("tau", 0)).eval(point)
    assert lhs == 0


def test_p1_displays():
    p1z = pf.p1().subs("tau", 0)
    assert p1z.subs("a", pf.N - 1) == parse_poly("lam^2*((lam+1)^2 + 3*(N-1))")
    assert p1z.subs("a", pf.N - 1).subs("lam", 0).is_zero()
    alpha2_val = p1z.subs("a", 2 * pf.N)
    decomp = parse_poly(
        "lam^2*(lam+1)^2 + 2*(2*N-1)*lam^2 + (N+1)*(lam-1)^2 + 2*(N^2-1)")
    assert alpha2_val == decomp
    # Q0(0) factorised display
    assert pf.q0().subs("tau", 0) == parse_poly("(lam-1)^2 * (lam+N-1)^2")


def test_w_interleaving_numeric():
    # C(nu) - A(nu-1) against the W form at (N, gamma, nu) = (3, 0, 2)
    p = Params(3, F(0))
    lam = p.lam
    nu = 2
    anu = alpha(nu, 3)
    q1z = pf.q1().subs("tau", 0)
    p1z = pf.p1().subs("tau", 0)
    point = {"a": anu, "lam": lam, "N": F(3)}
    c_nu = q1z.eval(point) / p1z.eval(point)
    a_prev = (alpha(nu - 1, 3) - alpha(lam, 3)) ** 2 / (alpha(nu - 1, 3) + lam ** 2)
    w_val = pf.w_interleave().eval(point)
    rhs = -2 * (nu - lam - 1) ** 2 * w_val * (nu + 3 - 2) \
        / ((alpha(nu - 1, 3) + lam ** 2) * p1z.eval(point))
    assert c_nu - a_prev == rhs


def test_quotient_constant_links_exact():
    assert certs.quotient_constant_links() == []


def test_sandwich_ok_rests_on_passing_certificates():
    # improvement_report answers sandwich_ok from the corpus: each
    # certificate its docstring names sits in one regime and passes, and
    # so do the nu = 1 and nu >= 2 links the docstring names
    doc = " ".join(constants.improvement_report.__doc__.split())
    corpus = {c.name for c in certs.load_corpus()}
    named = {w for w in re.findall(r"[a-z0-9]+(?:-[a-z0-9]+)+", doc) if w in corpus}
    assert named == {"c-minus-a-prev", "c-minus-a-next", "p1-alpha1",
                     "p1-alpha2", "p1-zero-display"}
    assert sorted(name for members in certs.REGIMES.values()
                  for name in members if name in named) == sorted(named)
    reports = certs._run_names(sorted(named))
    assert all(r.ok for r in reports), [r.name for r in reports if not r.ok]
    assert "quotient_constant_links" in doc
    assert {"nu=1", "nu>=2"} <= set(certs._LINK_BRANCHES)
    assert certs.quotient_constant_links() == []


def _sympy(poly):
    """A MultiPoly (or a rational) as a sympy expression, term by term."""
    poly = poly if isinstance(poly, MultiPoly) else MultiPoly.const(poly)
    syms = sympy.symbols(VARS)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(v ** e for v, e in zip(syms, exp)))
                       for exp, c in poly.terms.items()))


def _sympy_c_gamma_form(branch):
    """rellich_hardy_C's branch in sympy, gamma = 2 - N/2 - lam."""
    lam, n, s = sympy.symbols("lam N s")
    g = 2 - n / 2 - lam
    if branch == "radial":
        return ((g - 1) ** 2 - n ** 2 / 4) ** 2, (g + n / 2 - 2) ** 2 + n - 1
    if branch == "nu=1":
        return ((g - n / 2 - 2) ** 2 * ((g + n / 2 - 1) ** 2 + n - 1),
                (g + n / 2 - 3) ** 2 + 3 * (n - 1))
    anu = s * (s + n - 2)
    quart = ((g - 2) ** 2 - (s + n / 2 - 1) ** 2) ** 2
    return (quart * ((g + n / 2 - 1) ** 2 + anu),
            quart + 2 * (g - 1) * ((2 * g + n - 5) * anu
                                   + (n - 1) * (g + n / 2 - 3) ** 2))


@pytest.mark.parametrize("branch", certs._LINK_BRANCHES)
def test_link_identities_sympy(branch):
    # independent re-derivation: Q(0)/P(0) from pf.q0/p0/q1/p1 against the
    # gamma-form of C, simplified by sympy instead of the MultiPoly kernel
    tau, a, n, s = sympy.symbols("tau a N s")
    if branch == "radial":
        q, p = (_sympy(f()).subs(tau, 0) for f in (pf.q0, pf.p0))
    else:
        slot = n - 1 if branch == "nu=1" else s * (s + n - 2)
        q, p = (_sympy(f()).subs({tau: 0, a: slot}) for f in (pf.q1, pf.p1))
    num, den = _sympy_c_gamma_form(branch)
    assert sympy.cancel(q / p - num / den) == 0
    # and the body that rellich_hardy_C runs, at D = 1, is the same pair
    got_num, got_den = (_sympy(x) for x in certs._c_branch(branch, F(1, 2)))
    assert sympy.expand(got_num - num) == 0
    assert sympy.expand(got_den - den) == 0


def _sympy_a_forms(nu):
    """rellich_hardy_A's gamma-form and slot form in sympy, each as
    (num, den), gamma = 2 - N/2 - lam."""
    lam, n = sympy.symbols("lam N")
    g = 2 - n / 2 - lam

    def alpha_(x):
        return x * (x + n - 2)
    if nu == 0:
        return ((g - n / 2) ** 2, 1), ((lam + n - 2) ** 2, 1)
    return ((((g - 1) ** 2 - (nu + n / 2 - 1) ** 2) ** 2,
             (g + n / 2 - 2) ** 2 + alpha_(nu)),
            ((alpha_(nu) - alpha_(lam)) ** 2, alpha_(nu) + lam ** 2))


@pytest.mark.parametrize("nu", [0, 1, "s"])
def test_a_forms_sympy(nu):
    # independent re-derivation of both forms of A: they are one rational
    # function, and the bodies rellich_hardy_A runs, at D = 1, are the pairs
    forms = _sympy_a_forms(sympy.Symbol("s") if nu == "s" else nu)
    (ng, dg), (nl, dl) = forms
    assert sympy.cancel(ng / dg - nl / dl) == 0
    args = (certs._gamma_d(F(1, 2)), F(1, 2), pf.N)
    at = pf.S if nu == "s" else nu
    pairs = (constants._AModes(*args, certs._pair)[at], constants._a_slot(*args, at))
    for label, pair, (num, den) in zip(("gamma-form", "slot form"), pairs, forms):
        got_num, got_den = (_sympy(x) for x in pair)
        assert sympy.expand(got_num - num) == 0, label
        assert sympy.expand(got_den - den) == 0, label


def test_link_forms_equal_rellich_hardy_C():
    forms = {b: certs._c_branch(b, F(1, 2)) for b in certs._LINK_BRANCHES}
    for n in range(2, 9):
        # every lam = 0 point (gamma = 2 - N/2) and a spread of others
        gammas = {F(4 - n, 2), F(-3), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)}
        for g in sorted(gammas):
            p = Params(n, g)
            for nu in range(9):
                branch = certs._LINK_BRANCHES[min(nu, 2)]
                num, den = forms[branch]
                point = {"lam": p.lam, "N": F(n), "s": F(nu)}
                assert num.eval(point) / den.eval(point) \
                    == rellich_hardy_C(p, nu), (n, g, nu)


def _numerator_plus_nu(real):
    def body(G, q, N, nu):
        num, den = real(G, q, N, nu)
        return num + nu, den
    return body


def _zero_pair(real):
    """A mode table's __init__ whose pairs for the certificate layer are
    all (0, 0); the exact path's Fraction tables keep their values."""
    def zero(num, den):
        return MultiPoly(), MultiPoly()

    def init(self, G, q, N, ratio):
        real(self, G, q, N, zero if ratio is certs._pair else ratio)
    return init


def _doubled(real):
    return lambda *args: 2 * real(*args)


def _mutant(old, new):
    """A constants function or table method with the source text `old`
    replaced by `new`."""
    def make(real):
        src = textwrap.dedent(inspect.getsource(real))
        assert src.count(old) == 1, (real.__qualname__, old)
        scope = dict(vars(constants))
        exec(src.replace(old, new), scope)
        return scope[real.__name__]
    return make


def _patch(monkeypatch, target, perturb):
    """Replace `target`, a polyfamily name (`q0`) or a constants name
    (`_a_slot`, `_CModes.__missing__`), by `perturb` of itself."""
    owner_name, _, name = target.rpartition(".")
    owner = getattr(constants, owner_name) if owner_name else \
        constants if target.startswith("_") else pf
    monkeypatch.setattr(owner, name, perturb(getattr(owner, name)))


# numerators + nu in A(nu) and C(nu >= 2), on every path alike
_A_NUMERATOR_PLUS_NU = _mutant("self.ratio((self.g1sq - w2) ** 2,",
                               "self.ratio((self.g1sq - w2) ** 2 + nu,")
_C_NUMERATOR_PLUS_NU = _mutant("quart * (self.c_num + a),",
                               "quart * (self.c_num + a) + nu,")
# equals the true (nu + N/2 - 1) D at q = 1/2 only: a D = 1 check misses
# it, and so does every table but the exact path's, where D = 2q >= 2
_W_TIMES_D = _mutant("w = nu * self.D + self.k", "w = (nu * self.D + self.k) * self.D")
# C(nu >= 2)'s linear coefficient 2 gamma + N - 4 instead of 2 gamma + N - 5
_C_LIN = _mutant("5 * D", "4 * D")


@pytest.mark.parametrize("targets,perturb,fails", [
    (["q0"], lambda f: lambda: f() + pf.LAM, ["radial link"]),
    # the links read P1(0) and Q1(0) from their own cached builders; the
    # tau-free perturbation is the same fault in both
    (["p1", "p1_at_zero"], lambda f: lambda: f() + pf.LAM ** 2 * pf.A,
     ["nu=1 link", "nu>=2 link"]),
    (["q1", "q1_at_zero"], lambda f: lambda: f() + pf.A ** 3,
     ["nu=1 link", "nu>=2 link"]),
    # + nu on a D-scaled numerator is a different fault at each D, so the
    # exact path (D = 2q) differs from its q = 1/2 pairs too
    (["_CModes.__missing__"], _C_NUMERATOR_PLUS_NU, ["nu>=2 link", "C wrapper"]),
    # zero num and den would satisfy the cross-multiplied identity
    # vacuously; the exact path then differs from its q = 1/2 pairs
    (["_CModes.__init__"], _zero_pair,
     ["radial link", "nu=1 link", "nu>=2 link", "C(0) = A(1)", "C wrapper"]),
    (["_AModes.__init__"], _zero_pair,
     ["A(0) forms", "A(s) forms", "C(0) = A(1)", "A wrapper"]),
    (["_alpha_int"], _doubled, ["A(s) forms"]),
    (["_CModes.__missing__"], _W_TIMES_D, ["nu>=2 link", "C wrapper"]),
    (["_AModes.__missing__"], _W_TIMES_D, ["A(s) forms", "C(0) = A(1)", "A wrapper"]),
    # the float path runs the same table: test_float_path_runs_the_certified_c_table
    (["_CModes.__init__"], _C_LIN, ["nu>=2 link"]),
], ids=["q0", "p1", "q1", "c-numerator", "c-zero", "a-zero", "alpha-doubled",
        "c-q-only", "a-q-only", "c-lin"])
def test_links_report_a_perturbed_closed_form(monkeypatch, targets, perturb,
                                              fails):
    for target in targets:
        _patch(monkeypatch, target, perturb)
    got = certs.quotient_constant_links()
    assert [f.split(" fail")[0] for f in got] == fails


_A_SLOT_REFS = ["a1-a0-identity", "a-diff-identity", "c-minus-a-prev",
                "c-minus-a-next"]


@pytest.mark.parametrize("target,perturb,fails", [
    ("_a_slot", _numerator_plus_nu, _A_SLOT_REFS),
    ("_alpha_int", _doubled, _A_SLOT_REFS),
    ("_AModes.__missing__", _A_NUMERATOR_PLUS_NU, ["a-rewrite-nu"]),
    ("_AModes.__init__", _zero_pair, ["a-rewrite-nu", "a-rewrite-0"]),
], ids=["slot-numerator", "alpha-doubled", "gamma-numerator", "gamma-zero"])
def test_section5_reports_a_perturbed_a_form(monkeypatch, target, perturb, fails):
    _patch(monkeypatch, target, perturb)
    got = [r.name for r in certs.run_suite(["section5"]).reports if not r.ok]
    assert got == fails


@pytest.mark.parametrize("target,perturb,detail", [
    ("q1_factored", lambda f: lambda: f() + pf.LAM,
     "q1-forms-agree: cubic factorisation of Q1 differs"),
    ("g0", lambda f: lambda: f() + pf.S,
     "g0-alpha2-shift: slot shift alpha_1 + (N+1) != alpha_2"),
    ("p1_at_zero", lambda f: lambda: f() + pf.TAU,
     "p1-tau-offset: tau-offset of P1 differs"),
], ids=["q1-forms", "g0-shift", "p1-offset"])
def test_structural_reports_name_a_perturbed_form(monkeypatch, target, perturb,
                                                  detail):
    monkeypatch.setattr(pf, target, perturb(getattr(pf, target)))
    got = [f"{r.name}: {r.detail}" for r in certs._structural_reports()
           if not r.ok]
    assert got == [detail]


def _run_python_O(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh `python -O` that imports this curlsharp."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(curlsharp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_links_name_perturbed_forms_under_python_O():
    # the mode evaluators run one form each, so a fault in another form
    # (A's slot form, the radial branch against A(1), Q1's factored form)
    # is named by the links and the structural reports, and fails
    # `certify --regime all`, with asserts stripped.  C(0)'s numerator + 1
    # is D-scaled, so the exact path (D = 2q) also leaves its q = 1/2 pair
    code = textwrap.dedent("""
        import contextlib, inspect, io, json, sys, textwrap
        from curlsharp import certificates as certs, cli, constants as c
        from curlsharp import polyfamily as pf
        if __debug__:
            sys.exit(4)
        alpha_int, q1_factored = c._alpha_int, pf.q1_factored
        c._alpha_int = lambda s, n, d: 2 * alpha_int(s, n, d)
        # C(0)'s numerator + 1, in the one table every path runs
        src = textwrap.dedent(inspect.getsource(c._CModes.__init__))
        old = "ratio((g1 ** 2 - h * h) ** 2,"
        if src.count(old) != 1:
            sys.exit(5)
        scope = dict(vars(c))
        exec(src.replace(old, "ratio((g1 ** 2 - h * h) ** 2 + 1,"), scope)
        c._CModes.__init__ = scope["__init__"]
        pf.q1_factored = lambda: q1_factored() + pf.TAU
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["certify", "--regime", "all"])
        doc = json.loads(out.getvalue())
        json.dump({
            "links": [f.split(" fail")[0] for f in certs.quotient_constant_links()],
            "structural": [r.name for r in certs._structural_reports() if not r.ok],
            "certify": [rc, doc["all_ok"], doc["link_and_guard_failures"],
                        sorted(r["name"] for r in doc["reports"]
                               if not (r["identity_ok"] and r["signs_ok"]))],
        }, sys.stdout)
    """)
    proc = _run_python_O(code)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["links"] == ["radial link", "A(s) forms", "C(0) = A(1)", "C wrapper"]
    assert got["structural"] == ["q1-forms-agree"]
    rc, all_ok, link_failures, failed_reports = got["certify"]
    assert (rc, all_ok) == (1, False)
    assert [f.split(" fail")[0] for f in link_failures] == got["links"]
    assert "q1-forms-agree" in failed_reports


def test_links_name_a_faulty_mode_wrapper_under_python_O():
    # the public rellich_hardy_A returning A(1) + 1 at nu = 1: its tables
    # are right, so only the links' check of the wrapper against the
    # tables' q = 1/2 pairs at lam can name it
    code = textwrap.dedent("""
        import json, sys
        from curlsharp import certificates as certs, constants as c
        if __debug__:
            sys.exit(4)
        real = c.rellich_hardy_A
        c.rellich_hardy_A = lambda p, nu: real(p, nu) + (nu == 1)
        json.dump(certs.quotient_constant_links(), sys.stdout)
    """)
    proc = _run_python_O(code)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == ["A wrapper fails at N=3 gamma=1/2 nu=1: "
                   "rellich_hardy_A != its q = 1/2 pair at lam"]


def test_run_suite_selection():
    # None is every regime, structural reports included; an empty list is
    # no selection at all, not a second spelling of every regime
    everything = certs.run_suite()
    assert everything.counts == certs.run_suite(list(certs.REGIMES)).counts
    assert len(everything.structural) == 3
    with pytest.raises(certs.CertificateError, match="no regime selected"):
        certs.run_suite([])
    assert certs.run_suite(["section5"]).structural == []


def test_interleaving_spot_checks():
    assert certs.interleaving_spot_checks(seed=0, count=200) == []


def test_difference_quotient_guard():
    margin, checked, failures = certs.difference_quotient_guard(
        seed=0, count=10_000)
    assert checked >= 10_000
    assert not failures
    assert margin >= -1e-12


def _dq_margin(p, nu):
    """(Q1 P1(0) - Q1(0) P1) / tau - c0 P1 P1(0) for channel nu at p: the
    guard's difference quotient minus the channel constant, cleared of
    its positive denominator P1 P1(0)."""
    q1, p1 = pf.channel_polys(p, nu)
    p1z = p1.subs("tau", 0)
    coeffs = (q1 * p1z - q1.subs("tau", 0) * p1).coeffs_in("tau")
    assert coeffs[0].is_zero()
    dq = sum((c * pf.TAU ** k for k, c in enumerate(coeffs[1:])), MultiPoly())
    return dq - certs.c0_for(p) * p1 * p1z


def test_guard_verdict_is_exact():
    # every case the float guard samples at seed 0 satisfies its bound on
    # the whole half-line, exactly: the reported float margin is rounding
    cases = certs._guard_cases(np.random.default_rng(0), 10_000)
    assert (len(cases), len(set(cases))) == (400, 348)
    for p, nu in set(cases):
        ok, witness = nonneg_on_interval(_dq_margin(p, nu), IntervalQ.at_least(0),
                                         var="tau")
        assert ok, (p, nu, witness)


def test_guard_cases_are_instances_of_the_qp_identities():
    # the float guard re-samples a proven claim: at each of its seed-0
    # cases, tau times the cleared margin over c0 is the target of its
    # regime's qp identity at (lam, N, alpha_nu), which the corpus proves
    # equal to _qp_difference and to tau times a nonnegative family
    targets = {c.name: c.target for c in certs.load_corpus()
               if c.name in ("qp1-identity", "qp2-identity", "qp3-identity")}
    cases = set(certs._guard_cases(np.random.default_rng(0), 10_000))
    assert len(cases) == 348
    for p, nu in cases:
        if p.gamma <= 1:
            name = "qp1-identity"
        else:
            name = "qp2-identity" if p.N >= 3 else "qp3-identity"
        got = (pf.TAU * _dq_margin(p, nu)).scale(1 / certs.c0_for(p))
        want = targets[name].subs_many({"lam": p.lam, "N": F(p.N),
                                        "a": alpha(nu, p.N)})
        assert got == want, (p, nu, name)


def test_difference_quotient_limit_is_c0():
    # gamma <= 1: the difference quotient stays >= 1 on [0, oo) and tends
    # to 1 as tau -> oo, so the channel constant c0 = 1 is sharp
    for n, g, nu in [(3, F(0), 1), (2, F(0), 1), (4, F(1), 2), (5, F(-2), 3)]:
        p = Params(n, g)
        q1, p1 = pf.channel_polys(p, nu)
        p1z = p1.subs("tau", 0).constant_value()
        num = (q1 * p1z - q1.subs("tau", 0) * p1).to_univariate("tau")
        den = p1.to_univariate("tau")
        assert (len(num), len(den)) == (4, 3), (n, g, nu)
        assert num[3] / (den[2] * p1z) == certs.c0_for(p) == 1, (n, g, nu)
        assert nonneg_on_interval(_dq_margin(p, nu), IntervalQ.at_least(0),
                                  var="tau")[0], (n, g, nu)


def test_c0_for():
    assert certs.c0_for(Params(3, F(0))) == 1
    assert certs.c0_for(Params(3, F(2))) == F(1, 2)
    assert certs.c0_for(Params(2, F(2))) == F(1, 3)


def test_checker_catches_broken_identity():
    cert = certs.parse_certificate("wrong", "target: lam^2 + 1\n")
    report = certs.check_certificate(cert, parse_poly("lam^2"))
    assert not report.identity_ok and "difference" in report.detail


def test_checker_catches_broken_signs():
    text = """
assume s
target: s - 1
term: dom(s)
term: -1
"""
    cert = certs.parse_certificate("wrong-signs", text)
    report = certs.check_certificate(cert, parse_poly("s - 1"))
    assert report.identity_ok and not report.signs_ok


def test_checker_rejects_unassumed_domain_factor():
    text = """
target: s
term: dom(s)
"""
    with pytest.raises(certs.CertificateError):
        certs.parse_certificate("bad-dom", text)
    # a certificate built without the parser is checked all the same
    cert = certs.parse_certificate("bad-dom", "assume s\n" + text)
    report = certs.check_certificate(
        dataclasses.replace(cert, assumed=frozenset()), parse_poly("s"))
    assert (report.identity_ok, report.signs_ok) == (True, False)
    assert report.detail == "term 0: dom(s) not assumed"


# the domain's N bound makes 10..12 the N a failure is named at
_BAD_RULE_HEAD = "domain: N >= 10\n"


@pytest.mark.parametrize("body,reference,identity_ok,detail", [
    ("target: N^2 + 1\n", "N^2 + N", False,
     "display != reference, difference N - 1; "
     "N=10: display != reference, difference 9; "
     "N=11: display != reference, difference 10; "
     "N=12: display != reference, difference 11"),
    ("target: 2*N\nterm: nne(N)\n", "2*N", False,
     "terms sum != display, difference -N; "
     "N=10: terms sum != display, difference -10; "
     "N=11: terms sum != display, difference -11; "
     "N=12: terms sum != display, difference -12"),
    ("target: N - 11\nnonneg: coeffs\n", "N - 11", True,
     "target has a negative shifted coefficient; "
     "N=10: target has a negative shifted coefficient"),
    ("target: -N\nterm: -1 * nne(N)\n", "-N", True,
     "term 0 has negative constant -1"),
    ("target: N - 11\nterm: nne(N - 11)\n", "N - 11", True,
     "term 0: nne(N - 11) has a negative shifted coefficient; "
     "N=10: term 0: nne(N - 11) has a negative shifted coefficient"),
    ("target: N*s - 1/2*N\nterm: nne(N) * uni(s - 1/2 ; s ; [0, 1])\n",
     "N*s - 1/2*N", True,
     "term 0: uni(s - 1/2) on [0, 1]: negative-value, p(0)=-1/2"),
], ids=["display", "terms-sum", "coeffs", "negative-constant", "nne", "uni"])
def test_each_rule_names_its_failure(body, reference, identity_ok, detail):
    # one failing certificate per rule.  The text before the first "N="
    # is the symbolic verdict; each rule whose input can hold N (the two
    # identities, coeffs and nne) is then run again at every N from the
    # domain's bound to 12 and repeats its text after "N=<n>: " where it
    # fails, while a term's constant and a uni factor, free of N, are
    # decided once.
    cert = certs.parse_certificate("bad", _BAD_RULE_HEAD + body)
    report = certs.check_certificate(cert, parse_poly(reference))
    assert (report.identity_ok, report.signs_ok) == (identity_ok, not identity_ok)
    assert report.detail == detail


@pytest.mark.parametrize("line,error", [
    ("nonneg: coefs\n", "is not coeffs"),
    ("nonneg: none\n", "is not coeffs"),
    ("nonneg: terms\nterm: nne(N - 3)\n", "is not coeffs"),
    ("term: uni(N*s + 1 ; s ; [0, 1])\n", "in its variable alone"),
    ("term: uni(s + 1 ; x ; [0, 1])\n", "in its variable alone"),
    ("term: uni(s + 1 ; lam ; [0, 1])\n", "in its variable alone"),
    ("term: uni(2 ; x ; [0, 1])\n", "in its variable alone"),
    ("target: N - 4\n", "repeated target: line"),
    ("nonneg: coeffs\nnonneg: coeffs\n", "repeated nonneg: line"),
    ("domain: N >= 6\n", "repeated domain bound on N"),
    ("domain: s >= 0, s >= 1\n", "repeated domain bound on s"),
    ("name: x\n", "unknown certificate line"),
    ("nrange: 3..12\n", "unknown certificate line"),
    ("assume s\n", "assume s: read by no dom"),
    ("let s1 = 1 - s\n", "let s1: read by no dom"),
    ("let lam = N - 3\nassume lam\nterm: dom(lam)\n",
     "let lam: the name of a variable"),
], ids=["misspelt", "none", "terms", "uni-with-n", "uni-unknown-var",
        "uni-other-var", "uni-constant-unknown-var", "repeated-target",
        "repeated-nonneg", "repeated-domain-line", "repeated-domain-clause",
        "stale-name", "stale-nrange", "unread-assume", "unread-let",
        "let-variable"])
def test_parser_rejects_what_the_checker_cannot_decide(line, error):
    text = "domain: N >= 3\ntarget: N - 3\n" + line
    with pytest.raises(certs.CertificateError, match=error):
        certs.parse_certificate("x", text)


def test_n_range_follows_the_domain():
    # a failure is named at each N from the domain's N bound, rounded up
    # (2 without one), to 12, and at no N when the target is free of N
    head = "target: N - 3\nnonneg: coeffs\n"
    for domain, want in (("", range(2, 13)), ("domain: N >= 5/2\n", range(3, 13)),
                         ("domain: N >= 1\n", range(2, 13))):
        cert = certs.parse_certificate("x", domain + head)
        assert cert.n_values == tuple(want), domain
    assert certs.parse_certificate("x", "domain: N >= 3\ntarget: lam\n").n_values == ()
    ranges = Counter((c.n_values[0], c.n_values[-1]) if c.n_values else None
                     for c in certs.load_corpus())
    assert ranges == {(2, 12): 38, (3, 12): 6, (4, 12): 1, (6, 12): 1, None: 23}


def _count_n_substitutions(monkeypatch):
    """Record every substitution of a number for N."""
    seen = []
    real = MultiPoly.subs

    def subs(self, var, value):
        if var == "N" and not isinstance(value, MultiPoly):
            seen.append(value)
        return real(self, var, value)
    monkeypatch.setattr(MultiPoly, "subs", subs)
    return seen


_FAILING_NNE = """
domain: N >= 2
target: N - 3
term: nne(N - 3)
"""


def test_failing_certificate_names_the_n(monkeypatch):
    cert = certs.parse_certificate("bad-nne", _FAILING_NNE)
    seen = _count_n_substitutions(monkeypatch)
    report = certs.check_certificate(cert, parse_poly("N - 3"))
    assert report.identity_ok and not report.signs_ok
    assert report.detail == ("term 0: nne(N - 3) has a negative shifted "
                             "coefficient; N=2: term 0: nne(N - 3) has a "
                             "negative shifted coefficient")
    assert seen  # the per-N diagnostic ran


def test_passing_certificates_make_no_n_substitution(monkeypatch):
    cases = [(c, certs.REFERENCES[c.name]()) for c in certs.load_corpus()
             if c.n_values]
    assert len(cases) >= 40
    seen = _count_n_substitutions(monkeypatch)
    for cert, reference in cases:
        assert certs.check_certificate(cert, reference).ok, cert.name
    assert seen == []


def test_shifted_coeffs_rule():
    # even powers of an unbounded variable are fine; odd ones are not
    ok = certs._shifted_coeffs_nonneg(parse_poly("lam^2 + N - 2"), {"N": F(2)})
    assert ok
    bad = certs._shifted_coeffs_nonneg(parse_poly("lam + N"), {"N": F(2)})
    assert not bad


def test_textual_corpus_roundtrip():
    # the canonical writer output re-parses to the same polynomial for
    # every target in the corpus
    from curlsharp.poly import format_poly
    for cert in certs.load_corpus():
        assert parse_poly(format_poly(cert.target)) == cert.target


def _nonzero_constant_term(real):
    """coeffs_in that reports a constant term of 1 more than the truth."""
    def coeffs_in(self, var):
        coeffs = real(self, var)
        return [coeffs[0] + 1] + coeffs[1:]
    return coeffs_in


def test_division_invariants_raise(monkeypatch):
    from curlsharp.poly import MultiPoly
    monkeypatch.setattr(MultiPoly, "coeffs_in",
                        _nonzero_constant_term(MultiPoly.coeffs_in))
    with pytest.raises(certs.DivisionInvariantError, match="F0"):
        certs._f0_shift_chain()
    with pytest.raises(certs.DivisionInvariantError, match="nu="):
        certs.difference_quotient_guard(count=25)
    assert issubclass(certs.DivisionInvariantError, RuntimeError)


def test_division_invariants_raise_under_python_O():
    code = ("import sys\n"
            "from curlsharp import certificates as certs\n"
            "from curlsharp.poly import MultiPoly\n"
            "if __debug__:\n"
            "    sys.exit(4)\n"
            "real = MultiPoly.coeffs_in\n"
            "MultiPoly.coeffs_in = lambda self, var: (\n"
            "    lambda c: [c[0] + 1] + c[1:])(real(self, var))\n"
            "raised = 0\n"
            "for call in (certs._f0_shift_chain,\n"
            "             lambda: certs.difference_quotient_guard(count=25)):\n"
            "    try:\n"
            "        call()\n"
            "    except certs.DivisionInvariantError:\n"
            "        raised += 1\n"
            "sys.exit(0 if raised == 2 else 3)\n")
    proc = _run_python_O(code)
    assert proc.returncode == 0, proc.stderr


def test_at_names_in_corpus_match_the_table():
    table = certs._at_table()
    read = set()
    for path in certs._corpus_dir().glob("*.cert"):
        read |= set(re.findall(r"@([A-Za-z_][A-Za-z0-9_]*)", path.read_text()))
    assert read <= set(table), read - set(table)
    # a slice beyond the family members earns its place by being read
    slices = set(table) - set(pf._MEMBERS)
    assert slices <= read, slices - read


def test_let_colon_spelling_is_rejected():
    text = "let: mu = lam\nassume mu\ntarget: lam\nterm: dom(mu)\n"
    with pytest.raises(certs.CertificateError, match="unknown certificate line"):
        certs.parse_certificate("x", text)
    # the alias reaches the target: dom(mu) is lam, and the certificate
    # keeps the name its caller gave
    cert = certs.parse_certificate("x", text.replace("let:", "let"))
    assert cert.name == "x"
    assert cert.terms[0].polynomial() == cert.target == parse_poly("lam")
    assert certs.check_certificate(cert, parse_poly("lam")).ok


_CORRUPTIONS = {
    "unknown-at-name": ("qp1-identity.cert", "@G0", "@G9"),
    "bad-polynomial": ("qp1-identity.cert", "(@G0 + @G1 * tau)", "(@G0 + * tau)"),
    "dom-unknown-variable": ("taylor-g1-c1.cert", "assume mu", "assume x\nterm: dom(x)"),
    "bad-domain-bound": ("taylor-g1-c1.cert", "N >= 2", "N >= two"),
    "domain-unknown-variable": ("taylor-g1-c1.cert", "N >= 2", "N >= 2, x >= 0"),
    "nonneg-misspelt": ("g0-case2-bound.cert", "nonneg: coeffs", "nonneg: coefs"),
    "uni-uses-n": ("g1-case1-c1.cert", "uni(21-10*s-3*s^2 ;", "uni(21-10*s-3*N*s^2 ;"),
    "uni-unknown-var": ("e01-series-n3.cert", "; s ; [0, oo))", "; x ; [0, oo))"),
    "duplicate-target": ("qp1-identity.cert", "target:", "target: 0\ntarget:"),
    # a file's regime is its entry in the certificate table, not a line
    "stale-regime-line": ("qp1-identity.cert", "target:", "regime: base\ntarget:"),
    # the name is the file's stem and the N range follows from domain:
    "stale-name-line": ("qp1-identity.cert", "target:", "name: qp1-identity\ntarget:"),
    "stale-nrange-line": ("e00-square-form.cert", "domain:", "nrange: 3..12\ndomain:"),
    # a variable is bounded once (the last of two bounds used to win)
    "repeated-domain-bound": ("taylor-g1-c1.cert", "N >= 2", "N >= 6, N >= 2"),
    # every let and assume line is read by a dom(...) factor
    "unread-assume": ("q0p0-identity.cert", "assume tau", "assume tau\nassume lam"),
    "unread-let": ("taylor-g1-c1.cert", "let mu", "let s1 = 1 - s\nlet mu"),
    # dom(a) would read the alias while target: reads the variable a
    "let-shadows-variable": ("p1-tau-slope.cert", "assume a", "let a = a\nassume a"),
    # a file no regime names would never be checked (old None: a new file)
    "file-not-in-table": ("p1-alpha3.cert", None, "target: lam\n"),
}


def _corrupt_corpus(tmp_path, case):
    name, old, new = _CORRUPTIONS[case]
    corpus = tmp_path / "certs"
    shutil.copytree(certs._corpus_dir(), corpus)
    path = corpus / name
    if old is None:
        assert not path.exists()
        path.write_text(new)
    else:
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
    return corpus, name


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_malformed_corpus_file_is_named(monkeypatch, capsys, tmp_path, case):
    from curlsharp import cli
    corpus, name = _corrupt_corpus(tmp_path, case)
    monkeypatch.setattr(certs, "_corpus_dir", lambda: corpus)
    assert cli.main(["certify", "--regime", "base"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"math failure: {name}: ")
    assert "Traceback" not in err


def test_malformed_corpus_file_is_named_under_python_O(tmp_path):
    for case, error in (("unknown-at-name", "unknown @reference 'G9'"),
                        ("file-not-in-table",
                         "no regime of the certificate table names it")):
        corpus, name = _corrupt_corpus(tmp_path / case, case)
        code = ("import sys\n"
                "from pathlib import Path\n"
                "from curlsharp import certificates as certs, cli\n"
                "if __debug__:\n"
                "    sys.exit(4)\n"
                f"certs._corpus_dir = lambda: Path({str(corpus)!r})\n"
                "sys.exit(cli.main(['certify', '--regime', 'base']))\n")
        proc = _run_python_O(code)
        assert proc.returncode == 1, (case, proc.stderr)
        assert proc.stderr.startswith(f"math failure: {name}: {error}")
        assert "Traceback" not in proc.stderr
