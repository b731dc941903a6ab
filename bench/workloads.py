"""The three workloads: seeded inputs, one operation, and output checks.

Each workload builds a fixed list of operation slots from its seed.  The
seed jitters sizes by a percent or two, picks which lines are falsified
and, where order changes no cost, shuffles the slots; it never changes
what kind of work a slot does, so every seed costs about the same.  A pass
over the schedule is the unit the run repeats.  Operations look the
package's functions up through the module objects at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

from reference import pi_decimals

FAST_IDENTITIES = ("machin", "euler")
SLOW_IDENTITIES = ("machin_pair(2,7)", "machin_pair(5,2)")


def _log_grid(count: int) -> list[int]:
    # quarter decades from 10^3
    return [round(10 ** (3 + k / 4)) for k in range(count)]


class Workload:
    """Defaults; subclasses set `schedule` and implement run_op/check_op.

    check_op returns (status, digits credited, flag count), where the flag
    count feeds the per-layer counter named by `flag_metric`.
    """

    name = ""
    tail_percentile = 90
    op_limit_s = 30.0
    flag_metric: str | None = None

    def start_pass(self) -> None:
        pass

    def wrong_outputs(self) -> set:
        """Schedule entries whose outputs failed the post-loop checks."""
        return set()


class Digits(Workload):
    """Library pi_digits over a mix of identities and sizes.

    Sizes above about 4290 digits raise ValueError from Python's default
    int-to-str limit inside pi_digits; they stay in the mix so that the
    defect shows as failed operations.
    """

    name = "digits"
    tail_percentile = 75
    flag_metric = "engine.unrounded"

    def __init__(self, mods, seed: int, quick: bool = False):
        self.m = mods
        rng = random.Random(seed)
        parse = mods.textio.parse_identity
        machin_pair = mods.generator.machin_pair
        self.identities = {
            "machin": machin_pair(4, Fraction(5)),
            "euler": parse("5*atan(1/7) + 2*atan(3/79) = 1/4*pi"),
            "machin_pair(2,7)": machin_pair(2, Fraction(7)),
            "machin_pair(5,2)": machin_pair(5, Fraction(2)),
        }
        if quick:
            fast_sizes, slow_sizes = [200, 600, 5000], [200, 600]
        else:
            # Quarter decades to 10^4, then half decades.  Fast formulas go
            # to 10^5; the slow ones (Lehmer 4-5) stop at 3*10^4, where
            # machin_pair(2, 7) alone takes seconds.
            fast_sizes = _log_grid(5) + [31623, 100000]
            slow_sizes = _log_grid(5) + [30000]
        lo, hi = fast_sizes[0], fast_sizes[-1]

        def jitter(size: int, cap: int) -> int:
            return min(cap, max(lo, round(size * rng.uniform(0.99, 1.01))))

        start = rng.randrange(2)
        ops = [
            (FAST_IDENTITIES[(k + start) % 2], jitter(s, hi))
            for k, s in enumerate(fast_sizes)
        ]
        for name in SLOW_IDENTITIES:
            ops += [(name, jitter(s, slow_sizes[-1])) for s in slow_sizes]
        rng.shuffle(ops)
        self.schedule = ops
        self.outputs: dict[int, set[str]] = {}

    def warm_up(self) -> None:
        for ident in self.identities.values():
            self.m.engine.pi_digits(ident, 100)

    def run_op(self, op):
        name, size = op
        return self.m.engine.pi_digits(self.identities[name], size)

    def check_op(self, op, result):
        # digit strings are checked against the reference after the loop
        self.outputs.setdefault(op[1], set()).add(result.digits)
        unrounded = 1 if result.unrounded else 0
        return "ok", (0 if unrounded else op[1]), unrounded

    def wrong_outputs(self) -> set:
        if not self.outputs:
            return set()
        ref = pi_decimals(max(self.outputs))
        bad = {size for size, texts in self.outputs.items() if texts != {"3." + ref[:size]}}
        return {op for op in self.schedule if op[1] in bad}


def _next_prime(n: int) -> int:
    def is_prime(m: int) -> bool:
        if m < 2:
            return False
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            if m % p == 0:
                return m == p
        d, r = m - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        for a in (2, 3, 5, 7, 11, 13, 17):  # deterministic below 3.4e14
            x = pow(a, d, m)
            if x in (1, m - 1):
                continue
            for _ in range(r - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        return True

    while not is_prime(n):
        n += 1
    return n


class Verify(Workload):
    """Parse one line of an identity document and verify it."""

    name = "verify"
    flag_metric = "verifier.indeterminate"

    def __init__(self, mods, seed: int, quick: bool = False):
        self.m = mods
        rng = random.Random(seed)
        gen = mods.generator
        F = Fraction

        def n_jit(n: int) -> int:
            return n if n < 10 else min(5000, round(n * rng.uniform(0.99, 1.01)))

        def k_jit(k: int) -> int:
            return max(1, round(k * rng.uniform(0.98, 1.02)))

        def quad(exp: int):
            d = _next_prime(round(10**exp * rng.uniform(1.0, 1.01)))
            m = rng.randint(1, 9)
            return gen.quad_reduce(2 * m, m * m - d, mods.values.surd_normalize(m, 1, d))

        def rational() -> Fraction:
            while True:
                x = F(rng.randint(20, 40), rng.randint(20, 40)) * rng.choice((1, -1))
                if abs(x) != 1:  # diff_identity is undefined at -1
                    return x

        def half(x):
            return rng.choice(gen.half_turn(x))

        scale = 10 if quick else 1
        # (identity, digits or None for exact).  Rational lines carry large
        # coefficients (fold cost); surd lines cover the quadratic fields.
        # Precisions 100..3000 put interval atan and cold pi on the path.
        slots = [
            (gen.machin_pair(n_jit(5000 // scale), F(5)), None),
            (gen.machin_pair(n_jit(5000 // scale), F(2)), 100),
            (gen.machin_pair(n_jit(1800 // scale), F(3)), None),
            (gen.machin_pair(n_jit(1800 // scale), F(7, 3)), None),
            (gen.machin_pair(n_jit(600 // scale), F(2)), 300),
            (gen.machin_pair(n_jit(600 // scale), F(5)), None),
            (gen.machin_pair(n_jit(200 // scale), F(3)), 1000 // scale),
            (gen.machin_pair(n_jit(200 // scale), F(7, 2)), None),
            (gen.machin_pair(n_jit(60), F(2)), 100),
            (gen.machin_pair(n_jit(60), F(11, 4)), None),
            (gen.machin_pair(4, F(5)), 3000 // scale),
            (gen.machin_pair(2, F(7)), 300),
            (gen.golden_family("odd", k_jit(400)), None),
            (gen.golden_family("lucas_minus", k_jit(20)), 300),
            (gen.golden_family("lucas_plus", k_jit(3)), 100),
            (gen.golden_family("only_lucas", k_jit(150)), None),
            (gen.golden_family("odd", k_jit(30)), 300),
            (gen.golden_family("even", k_jit(300)), None),
            (gen.golden_family("lucas_minus", k_jit(200)), None),
            (gen.golden_family("lucas_plus", k_jit(40)), 1000 // scale),
            (gen.golden_family("only_lucas", k_jit(8)), 100),
            (quad(3), None),
            (quad(4), 100),
            (quad(5), 300),
            (quad(6), None),
            (half(rational()), None),
            (half(rational()), 300),
            (gen.diff_identity(rational()), None),
            (gen.diff_identity(mods.values.surd_normalize(3, rng.choice((1, -1)), 2)), 1000 // scale),
        ]
        # The numeric verdict on this line is indeterminate at every seed:
        # the enclosure for phi^200-sized arguments is too wide at 1000
        # digits.  It stays true, so every seed has exactly one such line.
        slots.append((gen.golden_family("even", k_jit(100)), 1000 // scale))
        # A quarter of the lines are false: a coefficient moved by one on the
        # n*atan(1/x) term (residual atan(1/x), far above any guard band), or
        # the right side moved by a quarter turn.
        false_lines = set(rng.sample(range(len(slots) - 1), len(slots) // 4))
        entries, table = [], []
        for i, (ident, digits) in enumerate(slots):
            holds = i not in false_lines
            if not holds:
                ident = self._falsify(ident, i < 12, rng)
            entries.append((ident, None))
            table.append((digits, holds))
        doc = mods.textio.IdentityDocument(tuple(entries))
        lines = mods.textio.format_document(doc).splitlines()
        # Slot order is fixed, so the same lines pay for pi at each precision
        # (the first numeric line at that precision in a pass) at every seed.
        self.schedule = [(line, d, holds) for line, (d, holds) in zip(lines, table)]

    def _falsify(self, ident, machin_like: bool, rng):
        gen = self.m.generator
        if machin_like:
            first, *rest = ident.terms
            delta = rng.choice((1, -1)) if first.coeff > 1 else 1
            terms = (gen.ArctanTerm(first.coeff + delta, first.arg), *rest)
            return gen.Identity(terms, ident.rhs)
        return gen.Identity(ident.terms, ident.rhs + rng.choice((1, -1)) * Fraction(1, 4))

    def warm_up(self) -> None:
        line = self.m.textio.format_identity(self.m.generator.machin_pair(3, Fraction(4)))
        ident = self.m.textio.parse_document(line).entries[0][0]
        self.m.verifier.verify_exact(ident)
        self.m.verifier.verify_numeric(ident, 50)

    def start_pass(self) -> None:
        # Each pass is one verification session, which pays for pi at each
        # precision the way a fresh `arctanforge verify` process does.
        clear = getattr(self.m.fixedpoint.pi_interval, "cache_clear", None)
        if clear is not None:
            clear()

    def run_op(self, op):
        line, digits, _ = op
        ident = self.m.textio.parse_document(line).entries[0][0]
        if digits is None:
            return self.m.verifier.verify_exact(ident)
        return self.m.verifier.verify_numeric(ident, digits)

    def check_op(self, op, verdict):
        _, digits, holds = op
        if digits is not None and verdict.indeterminate:
            return "indeterminate", 0, 1
        if verdict.holds != holds:
            return "wrong", 0, 0
        return "ok", (digits or 0), 0


class Generate(Workload):
    """In-process `arctanforge` generator commands with stdout captured."""

    name = "generate"
    op_limit_s = 20.0

    def __init__(self, mods, seed: int, quick: bool = False):
        self.m = mods
        rng = random.Random(seed)

        def frac(lo: int, hi: int) -> str:
            while True:
                p, q = rng.randint(lo, hi), rng.randint(1, hi)
                x = Fraction(p, q) * rng.choice((1, -1))
                if abs(x) != 1 and x != 0:
                    return str(x)

        def grid(n: int, width: int, x_hi: int):
            a = max(1, round(n * rng.uniform(0.98, 1.0)))
            return ("gen", f"--n-range={a}..{a + width - 1}", f"--x-range=2..{x_hi}")

        # Radicands near each power of ten are primes, the worst case for
        # the package's trial-division squarefree test, so cost follows the
        # radicand size and not the seed's luck in picking small factors.
        top = 6 if quick else 12
        ops = []
        for e in range(1, top + 1):
            d = _next_prime(round(10**e * rng.uniform(1.0, 1.01)))
            m = rng.randint(1, 9)
            ops.append(("quad", f"--h={2 * m}", f"--k={m * m - d}", f"--alpha={m},1,{d}"))
        ops.append(grid(rng.randint(1, 12), 4, 5))
        for n in ((100, 500) if quick else (100, 500, 2000)):
            ops.append(grid(n, 2, 3))
        for base in ((3, 30) if quick else (3, 30, 150, 400)):
            for family in ("odd", "even", "lucas-minus", "lucas-plus", "only-lucas"):
                k = max(1, round(base * rng.uniform(0.98, 1.02)))
                ops.append(("golden", f"--family={family}", f"--k={k}"))
        for _ in range(4):
            ops.append(("half", f"--x={frac(1, 60)}"))
            ops.append(("diff", f"--f={frac(1, 60)}"))
            ops.append(("rootpoly", "--n=2", f"--x={frac(1, 99)}"))
        rng.shuffle(ops)
        self.schedule = ops
        self.outputs: dict[tuple, set[str]] = {}

    def warm_up(self) -> None:
        for argv in (
            ("gen", "--n=3", "--x=2"),
            ("quad", "--h=0", "--k=-2", "--alpha=0,1,2"),
            ("golden", "--family=odd", "--k=1"),
            ("half", "--x=3/4"),
            ("diff", "--f=1/2"),
            ("rootpoly", "--n=2", "--x=1/7"),
        ):
            self.run_op(argv)

    def run_op(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.m.cli.run(list(op))
        return rc, out.getvalue()

    def check_op(self, op, result):
        rc, text = result
        if rc != 0:
            return "exit", 0, 0
        self.outputs.setdefault(op, set()).add(text)
        return "ok", sum(ch.isdigit() for ch in text), 0

    def wrong_outputs(self) -> set:
        """Commands whose printed lines fail to parse back or to verify."""
        return {op for op, texts in self.outputs.items() if not all(self._valid(op, t) for t in texts)}

    def _valid(self, op, text: str) -> bool:
        m = self.m
        try:
            if op[0] == "rootpoly":
                return self._roots_valid(op, text)
            entries = m.textio.parse_document(text).entries
            expected = {"half": 2}.get(op[0], 1)
            if op[0] == "gen":
                (a, b), (c, d) = (
                    map(int, arg.split("=")[1].split("..")) for arg in op[1:]
                )
                expected = (b - a + 1) * (d - c + 1)
            return len(entries) == expected and all(
                m.verifier.verify_exact(ident).holds for ident, _ in entries
            )
        except (m.errors.ArctanForgeError, ValueError, ZeroDivisionError):
            return False

    def _roots_valid(self, op, text: str) -> bool:
        # z is a composition square root of x iff z (.) z = x
        x = self.m.textio.parse_value(op[2].split("=")[1])
        lines = text.splitlines()
        roots = [self.m.textio.parse_value(line[len("root: "):]) for line in lines[1:]]
        return (
            len(lines) == 3
            and all(line.startswith("root: ") for line in lines[1:])
            and all(self.m.odot.odot(z, z) == x for z in roots)
        )


WORKLOADS = {w.name: w for w in (Digits, Verify, Generate)}
