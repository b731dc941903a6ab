"""Acceptance suite: seven release gates, one printed verdict line each.

The verdict lines bypass output capture, so any pytest run shows them.
Each gate prints its line even when failing, then asserts, so a red run
still shows which gates closed.
"""

import random
import time
from fractions import Fraction

from arctanforge import (
    ArctanTerm,
    Identity,
    Surd,
    fold_terms,
    golden_family,
    lucas,
    machin_pair,
    odot,
    odot_pow,
    parse_document,
    phi_power,
    pi_digits,
    quad_reduce,
    root_poly,
    uv_pair,
    value_sqrt,
    verify_exact,
    verify_numeric,
)
from arctanforge.cli import run
from oracles import RecurrenceSpec, uv_closed, w_eval, winding_correction_literal

# Recorded from the pairwise-agreeing 1000-digit runs of the three engine
# sources below (criterion 5); the agreement is the oracle.
PI_50 = "3.14159265358979323846264338327950288419716939937510"

EULER = Identity(
    (ArctanTerm(5, Fraction(1, 7)), ArctanTerm(2, Fraction(3, 79))), Fraction(1, 4)
)


class _Gate:
    """Times a criterion body and prints one PASS/FAIL line no matter what.

    The line goes to the real terminal (capture suspended) so it shows up
    in plain `pytest -v` runs, not only under -s.
    """

    def __init__(self, capsys, number: int, name: str, limit: float | None = None):
        self.capsys, self.number, self.name, self.limit = capsys, number, name, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        ok = exc_type is None and (self.limit is None or dt < self.limit)
        clock = f" ({dt:.2f}s" + (f" < {self.limit:g}s)" if self.limit else ")")
        line = f"ACCEPTANCE {self.number} {self.name}: {'PASS' if ok else 'FAIL'}{clock}"
        with self.capsys.disabled():
            print(line)
        if exc_type is None and self.limit is not None:
            assert dt < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def ident(terms, rhs):
    return Identity([ArctanTerm(c, a) for c, a in terms], Fraction(rhs))


def test_acceptance_1_generator_grid(capsys):
    with _Gate(capsys, 1, "two-term generator grid", 1.0):
        expected = {
            (7, 3): (Fraction(-278, 29), Fraction(1, 4)),
            (8, 3): (Fraction(863, 191), Fraction(5, 4)),
            (5, 2): (Fraction(-79, 3), Fraction(1, 4)),
            (2, 7): (Fraction(17, 31), Fraction(1, 4)),
        }
        for (n, x), (arg2, rhs) in expected.items():
            # through the command line, exactly as a user would run it
            assert run(["gen", "--n", str(n), "--x", str(x)]) == 0
            line = capsys.readouterr().out.strip()
            parsed = parse_document(line).identities[0]
            assert parsed.terms[0].coeff == n
            assert parsed.terms[0].arg == Fraction(1, x)
            assert parsed.terms[1].coeff in (1, -1)
            assert parsed.terms[1].coeff * parsed.terms[1].arg == arg2
            assert parsed.rhs == rhs
            # and through the library, with the companion coefficient +1
            lib = machin_pair(n, Fraction(x))
            assert (lib.terms[1].coeff, lib.terms[1].arg) == (1, arg2)
            assert lib.rhs == rhs


def _gallery() -> list[Identity]:
    phi = phi_power(1)
    sqrt2 = Surd(0, 1, 2)
    gallery = [
        # the three historical openers
        ident([(2, Fraction(1, 2)), (1, Fraction(4, 7)), (1, Fraction(1, 8))], Fraction(1, 2)),
        ident([(1, Fraction(1, 2)), (1, Fraction(1, 3))], Fraction(1, 4)),
        EULER,
        # golden-power quartet
        ident([(1, 1 / phi), (1, 1 / phi_power(3))], Fraction(1, 4)),
        ident([(2, 1 / phi_power(2)), (1, 1 / phi_power(6))], Fraction(1, 4)),
        ident([(3, 1 / phi_power(3)), (1, 1 / phi_power(5))], Fraction(1, 4)),
        ident([(12, 1 / phi_power(3)), (4, 1 / phi_power(5))], Fraction(1)),
        # square root of 2
        ident([(2, 1 / sqrt2), (1, (1 - 2 * sqrt2) / (1 + 2 * sqrt2))], Fraction(1, 4)),
        # (5 + sqrt(29))^3 / 8 = 70 + 13*sqrt(29)
        ident([(2, 1 / Surd(70, 13, 29)), (1, Fraction(69, 71))], Fraction(1, 4)),
    ]
    # odd-power golden family with its Lucas-quotient companion
    for k in range(11):
        m = 2 * k + 1
        arg2 = Fraction(lucas(m) - 2, lucas(m) + 2)
        gallery.append(ident([(2, 1 / phi_power(m)), (1, arg2)], Fraction(1, 4)))
    # even-power golden family, companion straight from the displayed quotient
    for k in range(1, 11):
        m = 2 * k
        pm = phi_power(m)
        arg2 = (-2 + (lucas(m) - 2) * pm) / (-2 + (lucas(m) + 2) * pm)
        gallery.append(ident([(2, 1 / pm), (1, arg2)], Fraction(1, 4)))
    # powers of two under the square root, odd exponents
    for k in (1, 3, 5, 7):
        s = value_sqrt(Fraction(2**k))
        arg2 = (2**k - 1 - 2 * s) / (2**k - 1 + 2 * s)
        gallery.append(ident([(2, 1 / s), (1, arg2)], Fraction(1, 4)))
    # Lucas half-turn pairs and the Lucas-only quarter turn
    for k in range(11):
        m = 2 * k + 1
        half = Fraction(lucas(m), 2)
        gallery.append(ident([(1, half), (-2, phi_power(m))], Fraction(-1, 2)))
        gallery.append(ident([(1, half), (2, 1 / phi_power(m))], Fraction(1, 2)))
        arg2 = Fraction(lucas(m) - 2, lucas(m) + 2)
        gallery.append(ident([(1, half), (-1, arg2)], Fraction(1, 4)))
    # closing quarter-turn differences f = x/2
    fib = RecurrenceSpec(0, 1, 1, -1)
    closers = [phi / 2] + [Fraction(w_eval(fib, m), 2) for m in range(1, 11)] + [sqrt2 / 2]
    for f in closers:
        gallery.append(ident([(1, f), (-1, (f - 1) / (f + 1))], Fraction(1, 4)))
    return gallery


def test_acceptance_2_historical_gallery(capsys):
    with _Gate(capsys, 2, "historical gallery", 5.0):
        gallery = _gallery()
        # 3 openers + 4 golden powers + sqrt2 + sqrt29 + 11 odd + 10 even
        # + 4 two-powers + 33 Lucas lines + 12 closers
        assert len(gallery) == 79
        for identity in gallery:
            v = verify_exact(identity)
            assert v.holds, identity
        # the family generators reproduce their displays
        g = golden_family("odd", 3)
        assert g.terms[1].arg == Fraction(lucas(7) - 2, lucas(7) + 2)
        sq2 = quad_reduce(0, -2, Surd(0, 1, 2))
        assert sq2.terms[1].arg == (1 - 2 * Surd(0, 1, 2)) / (1 + 2 * Surd(0, 1, 2))


def test_acceptance_3_winding_agreement(capsys):
    with _Gate(capsys, 3, "winding-count agreement", 10.0):
        for x in range(2, 21):
            for n in range(1, 21):
                k_fold = machin_pair(n, Fraction(x)).rhs - Fraction(1, 4)
                k_lit = winding_correction_literal(n, Fraction(x))
                assert k_fold == k_lit, (n, x, k_fold, k_lit)


def test_acceptance_4_algebraic_invariants(capsys):
    with _Gate(capsys, 4, "algebraic invariant suite"):
        rng = random.Random(20260815)

        def rand_x():
            while True:
                f = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
                if f not in (0, 1, -1):
                    return f

        # norm: u^2 + v^2 = (1 + x^2)^n
        for _ in range(50):
            x = rand_x()
            for n in range(21):
                p = uv_pair(n, x)
                assert p.u * p.u + p.v * p.v == (1 + x * x) ** n
        # closed binomial form against the recurrence
        for x in (Fraction(3), Fraction(-5, 2), phi_power(1)):
            for n in range(31):
                assert uv_closed(n, x) == uv_pair(n, x)
        for x in (Fraction(-7, 3), Surd(Fraction(1, 2), -2, 3)):
            for n in (32, 47, 63, 64, 100, 127, 128, 199, 200):
                assert uv_closed(n, x) == uv_pair(n, x)
        # u +- v satisfy the shifted recurrences
        for x in (Fraction(2), Fraction(7, 3), Fraction(-4)):
            plus = RecurrenceSpec(1, x + 1, 2 * x, 1 + x * x)
            minus = RecurrenceSpec(1, x - 1, 2 * x, 1 + x * x)
            for n in range(21):
                p = uv_pair(n, x)
                assert w_eval(plus, n) == p.u + p.v
                assert w_eval(minus, n) == p.u - p.v
        # Lucas-Fibonacci norm and the minimal polynomial of phi^m
        fib = RecurrenceSpec(0, 1, 1, -1)
        for m in range(51):
            assert lucas(m) ** 2 - 5 * w_eval(fib, m) ** 2 == 4 * (-1) ** m
        for m in range(1, 21):
            pm = phi_power(m)
            assert pm * pm - lucas(m) * pm + (-1) ** m == 0
        # composition powers against brute-force iteration
        for _ in range(100):
            x = rand_x()
            acc = x
            for n in range(2, 11):
                acc = odot(acc, x)
                assert odot_pow(x, n) == acc
        # folding is order-independent
        for _ in range(100):
            terms = [
                (rng.choice((1, -1)) * rng.randint(1, 3), rand_x())
                for _ in range(4)
            ]
            base = fold_terms(terms)
            for _ in range(3):
                rng.shuffle(terms)
                assert fold_terms(terms).same_angle(base)


def test_acceptance_5_digit_engine(capsys):
    with _Gate(capsys, 5, "pi digit engine", 5.0):
        sources = [EULER, machin_pair(2, Fraction(7)), machin_pair(5, Fraction(2))]
        runs = [pi_digits(s, 1000) for s in sources]
        texts = [r.digits for r in runs]
        assert texts[0] == texts[1] == texts[2]
        assert len(texts[0]) == 1002
        assert not any(r.unrounded for r in runs)
        assert texts[0][: len(PI_50)] == PI_50


def test_acceptance_6_root_polynomial(capsys):
    with _Gate(capsys, 6, "composition-root polynomial"):
        rng = random.Random(1123)
        for _ in range(20):
            x = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
            if x == 0:
                x = Fraction(5, 3)
            poly = root_poly(2, x)
            assert poly.coefficients == (-x, Fraction(2), x)
        for x in (Fraction(1, 2), Fraction(2), Fraction(3)):
            roots = root_poly(2, x).roots()
            assert len(roots) == 2
            for z in roots:
                assert odot_pow(z, 2) == x


def test_acceptance_7_negative_verification(capsys):
    with _Gate(capsys, 7, "negative verification"):
        wrong = ident([(2, Fraction(1, 2)), (1, Fraction(1, 3))], Fraction(1, 4))
        v = verify_exact(wrong)
        assert not v.holds
        arctan3 = fold_terms([(1, Fraction(3))])
        assert v.actual.same_angle(arctan3)
        assert v.actual.to_pi_multiple() is None
        nv = verify_numeric(wrong, digits=50)
        assert not nv.holds and not nv.indeterminate
