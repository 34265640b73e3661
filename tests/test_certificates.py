"""Certificate corpus: every identity and sign certificate, exact links,
numeric guards, and failure localisation."""

import inspect
import os
import re
import shutil
import subprocess
import sys
import textwrap
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
    # every name sits in exactly one regime, and each file's `regime:`
    # field names the REGIMES list that holds it
    home = {}
    for regime, members in certs.REGIMES.items():
        for name in members:
            assert name not in home, (name, home.get(name), regime)
            home[name] = regime
    assert set(home) == names
    assert {c.name: c.regime for c in corpus} == home


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
    half = F(1, 2)
    at = pf.S if nu == "s" else nu
    for body, (num, den) in zip((constants._a_gamma, constants._a_slot), forms):
        got_num, got_den = (_sympy(x) for x in
                            body(certs._gamma_d(half), half, pf.N, at))
        assert sympy.expand(got_num - num) == 0, body.__name__
        assert sympy.expand(got_den - den) == 0, body.__name__


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
    return lambda *args: (MultiPoly(), MultiPoly())


def _doubled(real):
    return lambda *args: 2 * real(*args)


def _mutant(old, new):
    """A constants body with the source text `old` replaced by `new`."""
    def make(real):
        src = textwrap.dedent(inspect.getsource(real))
        assert src.count(old) == 1, (real.__name__, old)
        scope = dict(vars(constants))
        exec(src.replace(old, new), scope)
        return scope[real.__name__]
    return make


# equals the true (nu + N/2 - 1) D at q = 1/2 only: a D = 1 check misses it
_W_TIMES_D = _mutant("w = (2 * nu + N - 2) * q", "w = (2 * nu + N - 2) * q * (2 * q)")
_C_BODIES = ("_c_radial", "_c_one", "_c_nu")


@pytest.mark.parametrize("targets,perturb,fails", [
    (["q0"], lambda f: lambda: f() + pf.LAM, ["radial link"]),
    # the links read P1(0) and Q1(0) from their own cached builders; the
    # tau-free perturbation is the same fault in both
    (["p1", "p1_at_zero"], lambda f: lambda: f() + pf.LAM ** 2 * pf.A,
     ["nu=1 link", "nu>=2 link"]),
    (["q1", "q1_at_zero"], lambda f: lambda: f() + pf.A ** 3,
     ["nu=1 link", "nu>=2 link"]),
    (["_c_nu"], _numerator_plus_nu, ["nu>=2 link"]),
    # zero num and den would satisfy the cross-multiplied identity vacuously
    (_C_BODIES, _zero_pair,
     ["radial link", "nu=1 link", "nu>=2 link", "C(0) = A(1)"]),
    (["_a_gamma"], _zero_pair, ["A(0) forms", "A(s) forms", "C(0) = A(1)"]),
    (["_alpha_int"], _doubled, ["A(s) forms"]),
    (["_c_nu"], _W_TIMES_D, ["nu>=2 link"]),
    (["_a_gamma"], _W_TIMES_D, ["A(s) forms", "C(0) = A(1)"]),
], ids=["q0", "p1", "q1", "c-numerator", "c-zero", "a-zero", "alpha-doubled",
        "c-q-only", "a-q-only"])
def test_links_report_a_perturbed_closed_form(monkeypatch, targets, perturb,
                                              fails):
    for target in targets:
        owner = constants if target.startswith("_") else pf
        monkeypatch.setattr(owner, target, perturb(getattr(owner, target)))
    got = certs.quotient_constant_links()
    assert [f.split(" fail")[0] for f in got] == fails


_A_SLOT_REFS = ["a1-a0-identity", "a-diff-identity", "c-minus-a-prev",
                "c-minus-a-next"]


@pytest.mark.parametrize("target,perturb,fails", [
    ("_a_slot", _numerator_plus_nu, _A_SLOT_REFS),
    ("_alpha_int", _doubled, _A_SLOT_REFS),
    ("_a_gamma", _numerator_plus_nu, ["a-rewrite-nu"]),
    ("_a_gamma", _zero_pair, ["a-rewrite-nu", "a-rewrite-0"]),
], ids=["slot-numerator", "alpha-doubled", "gamma-numerator", "gamma-zero"])
def test_section5_reports_a_perturbed_a_form(monkeypatch, target, perturb, fails):
    monkeypatch.setattr(constants, target, perturb(getattr(constants, target)))
    got = [r.name for r in certs.run_suite(["section5"]).reports if not r.ok]
    assert got == fails


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
    cert = certs.parse_certificate(
        "name: wrong\nregime: base\ntarget: lam^2 + 1\n")
    report = certs.check_certificate(cert, parse_poly("lam^2"))
    assert not report.identity_ok and "difference" in report.detail


def test_checker_catches_broken_signs():
    text = """
name: wrong-signs
regime: base
assume s
target: s - 1
term: dom(s)
term: -1
"""
    cert = certs.parse_certificate(text)
    report = certs.check_certificate(cert, parse_poly("s - 1"))
    assert report.identity_ok and not report.signs_ok


def test_checker_rejects_unassumed_domain_factor():
    text = """
name: bad-dom
regime: base
target: s
term: dom(s)
"""
    with pytest.raises(certs.CertificateError):
        certs.parse_certificate(text)


_N_AT_LEAST_3 = ("name: low\nregime: base\n{}domain: N >= 3\n"
                 "target: N - 3\nnonneg: coeffs\n")


@pytest.mark.parametrize("nrange", ["nrange: 2..12\n", ""],
                         ids=["explicit", "default"])
def test_nrange_below_domain_is_rejected(nrange):
    with pytest.raises(certs.CertificateError, match="below the domain"):
        certs.parse_certificate(_N_AT_LEAST_3.format(nrange))
    cert = certs.parse_certificate(_N_AT_LEAST_3.format("nrange: 3..12\n"))
    assert cert.n_values == tuple(range(3, 13))


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
name: bad-nne
regime: base
domain: N >= 2
nrange: 2..4
target: N - 3
term: nne(N - 3)
"""


def test_failing_certificate_names_the_n(monkeypatch):
    cert = certs.parse_certificate(_FAILING_NNE)
    seen = _count_n_substitutions(monkeypatch)
    report = certs.check_certificate(cert, parse_poly("N - 3"))
    assert report.identity_ok and not report.signs_ok
    assert report.detail == ("term 0: nne(N - 3) has a negative shifted "
                             "coefficient; N=2 term 0: nne(N - 3)")
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(curlsharp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
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
    text = "name: x\nregime: base\nlet: mu = lam\ntarget: lam\n"
    with pytest.raises(certs.CertificateError, match="unknown certificate line"):
        certs.parse_certificate(text)
    cert = certs.parse_certificate(text.replace("let:", "let"))
    assert cert.aliases == {"mu": parse_poly("lam")}


_CORRUPTIONS = {
    "unknown-at-name": ("qp1-identity.cert", "@G0", "@G9"),
    "bad-polynomial": ("qp1-identity.cert", "(@G0 + @G1 * tau)", "(@G0 + * tau)"),
    "dom-unknown-variable": ("taylor-g1-c1.cert", "assume mu", "assume x\nterm: dom(x)"),
    "bad-domain-bound": ("taylor-g1-c1.cert", "N >= 2", "N >= two"),
}


def _corrupt_corpus(tmp_path, case):
    name, old, new = _CORRUPTIONS[case]
    corpus = tmp_path / "certs"
    shutil.copytree(certs._corpus_dir(), corpus)
    text = (corpus / name).read_text()
    assert old in text
    (corpus / name).write_text(text.replace(old, new, 1))
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
    corpus, name = _corrupt_corpus(tmp_path, "unknown-at-name")
    code = ("import sys\n"
            "from pathlib import Path\n"
            "from curlsharp import certificates as certs, cli\n"
            "if __debug__:\n"
            "    sys.exit(4)\n"
            f"certs._corpus_dir = lambda: Path({str(corpus)!r})\n"
            "sys.exit(cli.main(['certify', '--regime', 'base']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(curlsharp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"math failure: {name}: unknown @reference 'G9'")
    assert "Traceback" not in proc.stderr
