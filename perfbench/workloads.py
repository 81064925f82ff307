"""The three workloads, as rounds of ops built from a seed.

A round is the same list of op kinds every time; round k draws its inputs
from (seed, k), and every input is given in a fresh seeded GL_n(Z) basis,
so no two ops of a run see the same input and a memoising change shows
only the reuse a real sweep has.  An op's `run` makes every program call
and is the only part timed; its `check` compares the output with
`oracle`, which computes apart from the program, and returns "ok",
"failed" (the op did not complete: an error, or an undecided search) or
"wrong" (it completed with a wrong answer).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import oracle
from twistdual import cli
from twistdual.characters import satake_prediction
from twistdual.dualgroup import (
    fl_dual,
    isomorphic,
    langlands_dual,
    lusztig_dual,
    quantum_dual_pair,
    twisted_dual,
)
from twistdual.qform import CartanDatum, QForm, cartan_qform, trivial_qform
from twistdual.rootdata import RootDatum

SMALL = ("SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "SL4")


class Op:
    """`prepare`, when given, loads the program-side inputs `run` needs: it
    runs untimed before `run`, and for the first round inside `setup_s`.
    It does its work once and is a no-op after."""

    __slots__ = ("kind", "run", "check", "cli", "prepare")

    def __init__(self, kind, run, check, cli=False, prepare=None):
        self.kind, self.run, self.check = kind, run, check
        self.cli, self.prepare = cli, prepare


def _data(rd):
    return {"simple_roots": [list(r) for r in rd.simple_roots.data],
            "simple_coroots": [list(r) for r in rd.simple_coroots.data]}


def _verdict_iso(res, d1, d2):
    if res.status == "undecided":
        return "failed"
    if res.status != "iso":
        return "wrong"
    ok = oracle.check_iso_witness(res.weight_map.data, res.permutation, _data(d1), _data(d2))
    return "ok" if ok else "wrong"


# -- certify -----------------------------------------------------------------

NONE_PAIRS = (("SO4", "SL2xPGL2"), ("SO4xSO4", "SL2xPGL2xSL2xPGL2"),
              ("SL2", "PGL2"), ("SL3", "PGL3"), ("SL4", "PGL4"))
TORUS_REBASES = ("GL2xT2", "SL2xT1", "Sp4xT1")
REBASES_PER_LABEL = 2
CLI_SLICE = (("fl", 3), ("lusztig", 3), ("langlands", 2), ("quantum", 2), ("dual", 2))


def _iso_op(kind, build, expect="iso"):
    """An op that builds two duals and decides `isomorphic` on them."""
    def run():
        a, b = build()
        return a, b, isomorphic(a, b)

    def check(out):
        a, b, res = out
        if expect == "none":
            return "ok" if res.status == "none" else (
                "failed" if res.status == "undecided" else "wrong")
        return _verdict_iso(res, a, b)

    return Op(kind, run, check)


def _fl_gram(dd, d, n):
    """d (1/2h) K / N: the form whose twisted dual is the FL dual."""
    h = oracle.dual_coxeter(dd["name"])
    return [[Fraction(x * d, 2 * h * n) for x in row] for row in oracle.killing_gram(dd)]


def _fl_build(dd, d, n):
    gram = _fl_gram(dd, d, n)

    def build():
        rd = RootDatum.from_dict(dd)
        return (fl_dual(rd, d, n).datum,
                twisted_dual(rd, QForm(rd, gram), "full").datum)
    return build


def _lusztig_build(dd, f, order):
    def build():
        rd = RootDatum.from_dict(dd)
        cd = CartanDatum(rd, f)
        return (lusztig_dual(cd, order).datum,
                twisted_dual(rd, cartan_qform(cd, order), "coroot").datum)
    return build


def _quantum_b(dd, level):
    return [[x / level for x in row] for row in oracle.normalized_killing(dd)]


def _quantum_op(dd, b):
    def run():
        rd = RootDatum.from_dict(dd)
        pair = quantum_dual_pair(rd, b)
        return pair, isomorphic(pair.left.datum, pair.right.datum)

    def check(out):
        pair, res = out
        if not pair.ok or abs(oracle.det(pair.iso.data)) != 1:
            return "wrong"
        return _verdict_iso(res, pair.left.datum, pair.right.datum)

    return Op("quantum", run, check)


def _langlands_op(dd):
    def build():
        rd = RootDatum.from_dict(dd)
        return twisted_dual(rd, trivial_qform(rd)).datum, langlands_dual(rd).datum
    return _iso_op("langlands", build)


def _langlands_self_build(dd):
    """The two sides of `compare langlands twisted`: with no form given, the
    twisted side mirrors the Langlands dual."""
    def build():
        datum = langlands_dual(RootDatum.from_dict(dd)).datum
        return datum, datum
    return build


def _quantum_build(dd, b):
    def build():
        pair = quantum_dual_pair(RootDatum.from_dict(dd), b)
        return pair.left.datum, pair.right.datum
    return build


def _double_dual_op(dd):
    def build():
        rd = RootDatum.from_dict(dd)
        first = twisted_dual(rd, trivial_qform(rd)).datum
        return twisted_dual(first, trivial_qform(first)).datum, rd
    return _iso_op("double", build)


def _pair_op(kind, dd1, dd2, expect):
    def build():
        return (langlands_dual(RootDatum.from_dict(dd1)).datum,
                langlands_dual(RootDatum.from_dict(dd2)).datum)
    return _iso_op(kind, build, expect)


def _cli_op(kind, args, check):
    runner = CliRunner()

    def run():
        return runner.invoke(cli.main, args)

    return Op(kind, run, check, cli=True)


def _parse_rows(text):
    return [list(r) for r in json.loads(text)]


def _crashed(res):
    """The command ended in an exception other than a deliberate exit."""
    return res.exception is not None and not isinstance(res.exception, SystemExit)


def _witness_verdict(witness, build):
    """The printed witness must carry the simple roots of the first datum
    the command compares onto those of the second, and the coroots back;
    `build` makes the two data through the API, as the command does."""
    d1, d2 = build()
    return "ok" if oracle.check_iso_map(witness, _data(d1), _data(d2)) else "wrong"


def _check_agree(build):
    def check(res):
        lines = res.output.splitlines()
        if _crashed(res) or lines[:1] == ["UNDECIDED"]:
            return "failed"
        if res.exit_code != 0 or lines[:1] != ["AGREE"]:
            return "wrong"
        return _witness_verdict(_parse_rows(lines[1].split(":", 1)[1]), build)
    return check


def _check_quantum_cli(build):
    def check(res):
        if _crashed(res):
            return "failed"
        if res.exit_code != 0:
            return "wrong"
        last = res.output.splitlines()[-1]
        if not last.startswith("iso: "):
            return "wrong"
        # row i is the image of the i-th basis weight, so the map is its transpose
        return _witness_verdict(oracle.transpose(_parse_rows(last[5:])), build)
    return check


def _lattice_rows(text):
    text = text.strip()
    if text == "0":
        return []
    if text.endswith("Z") and not text.startswith("span"):
        return [[int(text[:-1])]]
    inner = text[len("span{"):-1]
    return [[int(x) for x in part.strip("() ").split(",")] for part in inner.split("), (")]


def _dual_cli_check(dd, gram, a):
    """`dual --q-exp a`: the multipliers are the orders of a * Q_gram on the
    coroots, the weight lattice lies in the kernel of kappa, and each dual
    root is its multiplier times the coroot."""
    n = dd["rank"]
    orders = [(a * Fraction(oracle.dot(oracle.matvec(gram, c), c), 2)).denominator
              for c in dd["simple_coroots"]]

    def check(res):
        if _crashed(res):
            return "failed"
        if res.exit_code != 0:
            return "wrong"
        fields = dict(line.split(": ", 1) for line in res.output.splitlines() if ": " in line)
        mults = [int(x) for x in fields["multipliers"].strip("[]").split(",")]
        basis = _lattice_rows(fields["weight lattice"])
        roots = _parse_rows(fields["dual simple roots"])
        if mults != orders:
            return "wrong"
        for b in basis:
            if any((a * x).denominator != 1 for x in oracle.matvec(gram, b)):
                return "wrong"
        for r, c, coords in zip(mults, dd["simple_coroots"], roots):
            img = [sum(k * b[j] for k, b in zip(coords, basis)) for j in range(n)]
            if img != [r * x for x in c]:
                return "wrong"
        return "ok"

    return check


def _check_usage_error(res):
    """Malformed input must give exit status 2 and a one-line error (click
    prints the usage lines above it), never a traceback."""
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    return "ok" if res.exit_code == 2 and not _crashed(res) and len(errors) == 1 else "failed"


class Certify:
    """The paper's agreement sweep at rank <= 4, plus a CLI slice."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        # malformed inputs do not depend on the seed
        (self.workdir / "bad_gram.json").write_text("{\"gram\": [[1, 2]")
        (self.workdir / "sl2.json").write_text(json.dumps(oracle.datum("SL2")))
        (self.workdir / "form_no_tau.json").write_text(json.dumps(
            {"root_datum": "sl2.json", "gram_rational": [[[1, 3]]]}))

    def round(self, k):
        # Bases and CLI arguments depend on the round alone; the seed draws
        # the torus rebases and the order.  Seeded bases for all 516 ops
        # moved op_p90_ms by 7% from seed to seed (the heavy ops are the
        # rebased SL4 and G2 ones), too much for its bound.
        bases = random.Random(f"certify-bases/{k}")
        seeded = random.Random(f"certify/{self.seed}/{k}")

        def rebased(label, steps=3, rng=bases):
            d = oracle.datum(label)
            return oracle.Rebase(d["rank"], rng, steps).datum(d)

        ops = []
        for label in SMALL:
            for d, n in itertools.product((1, 2, 3), range(1, 13)):
                ops.append(_iso_op("fl", _fl_build(rebased(label), d, n)))
            for scale, order in itertools.product((1, 2), range(1, 13)):
                dd = rebased(label)
                f = [x * scale for x in oracle.symmetrizer(dd)]
                ops.append(_iso_op("lusztig", _lusztig_build(dd, f, order)))
            for level in range(1, 9):
                dd = rebased(label)
                ops.append(_quantum_op(dd, _quantum_b(dd, level)))
            ops.append(_langlands_op(rebased(label)))
            ops.append(_double_dual_op(rebased(label)))
        for left, right in NONE_PAIRS:
            ops.append(_pair_op("none", rebased(left), rebased(right), "none"))
        for label in TORUS_REBASES:
            for _ in range(REBASES_PER_LABEL):
                ops.append(_pair_op("rebase", oracle.datum(label),
                                    rebased(label, steps=8, rng=seeded), "iso"))
        ops += self._cli_ops(k, bases, rebased)
        seeded.shuffle(ops)
        return ops

    def _cli_ops(self, k, rng, rebased):
        ops = []
        for i, (kind, count) in enumerate(CLI_SLICE):
            for j in range(count):
                label = rng.choice(SMALL)
                dd = rebased(label)
                path = self.workdir / f"rd_{k}_{i}_{j}.json"
                path.write_text(json.dumps(dd))
                src = ["--rd-file", str(path)]
                if kind == "fl":
                    d, n = rng.randint(1, 3), rng.randint(1, 12)
                    args = ["compare", "fl", "twisted", *src, "--d", str(d), "--n", str(n)]
                    ops.append(_cli_op("cli", args, _check_agree(_fl_build(dd, d, n))))
                elif kind == "lusztig":
                    order = rng.randint(1, 12)
                    args = ["compare", "lusztig", "twisted", *src, "--l", str(order)]
                    build = _lusztig_build(dd, oracle.symmetrizer(dd), order)
                    ops.append(_cli_op("cli", args, _check_agree(build)))
                elif kind == "langlands":
                    ops.append(_cli_op("cli", ["compare", "langlands", "twisted", *src],
                                       _check_agree(_langlands_self_build(dd))))
                elif kind == "quantum":
                    level = rng.randint(1, 8)
                    args = ["quantum-pair", *src, "--n", str(level)]
                    build = _quantum_build(dd, _quantum_b(dd, level))
                    ops.append(_cli_op("cli", args, _check_quantum_cli(build)))
                else:
                    a = Fraction(rng.randint(1, 5), rng.randint(2, 7))
                    args = ["dual", *src, "--q-exp", str(a)]
                    ops.append(_cli_op("cli", args,
                                       _dual_cli_check(dd, oracle.minimal_even(dd), a)))
        w = self.workdir
        ops.append(_cli_op("cli-malformed", ["quantum-pair", "--group", "SL2",
                                             "--gram-file", str(w / "bad_gram.json")],
                           _check_usage_error))
        ops.append(_cli_op("cli-malformed", ["dual", "--form-file",
                                             str(w / "form_no_tau.json")],
                           _check_usage_error))
        ops.append(_cli_op("cli-malformed", ["incidence", "--rank", "2",
                                             "--a", "1", "--b", "1"],
                           _check_usage_error))
        return ops


# -- satake --------------------------------------------------------------------

SATAKE_FORMS = (("SL2", None), ("SL2", Fraction(2, 5)), ("PGL2", Fraction(2, 3)),
                ("SL3", None), ("Sp4", None), ("G2", None))
HEIGHT = 8    # pairs with <rho, lam + mu> <= HEIGHT


def _dominant_pairs(d, gram):
    """Dominant coweight pairs in the kernel of kappa with
    <2 rho, lam + mu> <= 2 HEIGHT, in the datum's own coordinates."""
    n = d["rank"]
    two_rho = [sum(col) for col in zip(*(b for b, _ in oracle.positive_roots(d)))]
    dominant = []
    for lam in itertools.product(range(2 * HEIGHT + 1), repeat=n):
        if any(oracle.dot(a, lam) < 0 for a in d["simple_roots"]):
            continue
        if any(Fraction(x).denominator != 1 for x in oracle.matvec(gram, lam)):
            continue
        if oracle.dot(two_rho, lam) <= 2 * HEIGHT:
            dominant.append(lam)
    return [(lam, mu) for lam in dominant for mu in dominant
            if oracle.dot(two_rho, lam) + oracle.dot(two_rho, mu) <= 2 * HEIGHT]


def _satake_check(d, gram, lam, mu):
    """Properties every convolution prediction must have, computed apart
    from the program: the dimensions add up (Weyl's product on the twisted
    dual), the top constituent has multiplicity one, every constituent lies
    below lam + mu in the dual's root order, fiber dimensions are the
    integers (<2rho, lam> + <2rho, mu> - <2rho, nu>) / 2 >= 0, and in rank
    one the constituents are the Clebsch-Gordan series."""
    pos = oracle.positive_roots(d)
    two_rho = [sum(col) for col in zip(*(b for b, _ in pos))]
    dual_simple = [[oracle.form_order(gram, c) * x for x in c] for c in d["simple_coroots"]]
    top = tuple(x + y for x, y in zip(lam, mu))

    def dim(v):
        return oracle.dual_weyl_dim(pos, gram, v)

    def check(rep):
        decomp = dict(rep.decomposition)
        if rep.highest_multiplicity != 1 or decomp.get(top) != 1:
            return "wrong"
        if not (rep.ok and rep.all_below_highest) or any(m <= 0 for m in decomp.values()):
            return "wrong"
        if sum(m * dim(nu) for nu, m in decomp.items()) != dim(lam) * dim(mu):
            return "wrong"
        for nu, f in rep.fiber_dims:
            want = Fraction(oracle.dot(two_rho, lam) + oracle.dot(two_rho, mu)
                            - oracle.dot(two_rho, nu), 2)
            if f != want or f.denominator != 1 or f < 0:
                return "wrong"
        for nu in decomp:
            coeffs = oracle.solve(dual_simple, [t - x for t, x in zip(top, nu)])
            if coeffs is None or any(c.denominator != 1 or c < 0 for c in coeffs):
                return "wrong"
        if len(pos) == 1:
            (beta, cobeta), = pos
            r = oracle.form_order(gram, cobeta)
            if decomp != oracle.clebsch_gordan(lam, mu, beta, cobeta, r):
                return "wrong"
        return "ok"

    return check


class Satake:
    """Convolution predictions over every dominant pair of each form, in
    one basis per form per round: within a round every pair rebuilds the
    kernel and the dual of the same form, and the same highest weights
    recur across pairs, which is the reuse a real sweep has."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.grid = []
        for label, value in SATAKE_FORMS:
            d = oracle.datum(label)
            n = d["rank"]
            gram = [[Fraction(0)] * n for _ in range(n)] if value is None else [[value]]
            self.grid.append((d, gram, _dominant_pairs(d, gram)))

    def round(self, k):
        # The bases depend on the round alone and the seed orders the ops:
        # even a signed permutation basis moves the cost of a sweep by 7% in
        # ops_per_s and 17% in op_p90_ms, more than the bounds allow, and a
        # run has only one basis per form.
        bases = random.Random(f"satake-bases/{k}")
        ops = []
        for d, gram, pairs in self.grid:
            rb = oracle.Rebase(d["rank"], bases, None)
            dd, g = rb.datum(d), rb.gram(gram)
            form = {}

            def prepare(form=form, dd=dd, g=g):
                if not form:
                    form["q"] = QForm(RootDatum.from_dict(dd), g)

            for lam, mu in pairs:
                lam2, mu2 = rb.coweight(lam), rb.coweight(mu)
                ops.append(Op("satake",
                              lambda form=form, a=lam2, b=mu2: satake_prediction(form["q"], a, b),
                              _satake_check(dd, g, lam2, mu2), prepare=prepare))
        random.Random(f"satake/{self.seed}/{k}").shuffle(ops)
        return ops


# -- highrank --------------------------------------------------------------------

# Eleven labels, not ten: the op times cluster by label, and with ten
# equal groups the median and the 90th percentile fall exactly on the gaps
# between clusters, where they jump with the extremes of two clusters.
HIGHRANK = ("GL5", "PGL5", "SL6", "PGL6", "GL6", "SL3xSL3", "SL4xSL2", "Sp4xSp4",
            "G2xG2", "Sp4xG2xSL2", "SO4xSO4xSL2")
LEVELS = (None, 2, 3)      # the trivial form, then minimal_even_gram / k


class Highrank:
    """Construction at rank 4 to 6: each op loads a datum dict, builds a form,
    the twisted dual and the double dual, and decides `isomorphic` between
    the double dual and the expected one, built by `oracle`."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.grid = []
        for label in HIGHRANK:
            d = oracle.datum(label)
            gram = oracle.minimal_even(d)
            for k in LEVELS:
                expected = d if k is None else oracle.expected_double_dual(d, gram, k)
                self.grid.append((label, d, gram, k, expected))
        self.expected = {}      # the targets as RootDatum objects, built by `prepare`

    def round(self, k_round):
        bases = random.Random(f"highrank-bases/{k_round}")   # as in Satake.round
        ops = []
        for label, d, gram, k, expected in self.grid:
            rb = oracle.Rebase(d["rank"], bases, None)
            dd = rb.datum(d)
            g = None if k is None else [[Fraction(x, k) for x in row] for row in rb.gram(gram)]
            ops.append(self._op(label, k, dd, g, expected))
        random.Random(f"highrank/{self.seed}/{k_round}").shuffle(ops)
        return ops

    def _op(self, label, k, dd, g, expected):
        roots, order = oracle.closed_form_sizes(label)
        mults = tuple(1 if g is None else oracle.form_order(g, c) for c in dd["simple_coroots"])
        key = (label, k)

        def prepare():
            if key not in self.expected:
                self.expected[key] = RootDatum.from_dict(expected)

        def run():
            target = self.expected[key]
            rd = RootDatum.from_dict(dd)
            first = twisted_dual(rd, QForm(rd, g))
            second = twisted_dual(first.datum, trivial_qform(first.datum))
            return rd, first, second, isomorphic(second.datum, target)

        def check(out):
            rd, first, second, res = out
            if len(rd.root_pairs) != roots or rd.weyl_group().order != order:
                return "wrong"
            if first.multipliers != mults:
                return "wrong"
            return _verdict_iso(res, second.datum, self.expected[key])

        return Op("highrank", run, check, prepare=prepare)


WORKLOADS = {"certify": Certify, "satake": Satake, "highrank": Highrank}
