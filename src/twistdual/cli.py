"""Command-line surface: load root data and forms, run the dual
constructions and comparisons, emit deterministic text reports.

Exit status 0 on success, 1 on domain errors, 2 on usage errors.  All
numbers are printed in exact integer / fraction notation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import click

from . import characters as ch
from . import divisor_calc as dc
from . import dualgroup as dg
from . import grcomb as gc
from . import qform as qf
from . import rootdata as rdmod
from .lattice import MalformedMatrixError, Sublattice
from .qform import Exponent, QForm


class DomainError(click.ClickException):
    exit_code = 1


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad fraction {text!r}: {exc}") from None


def _vector(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad integer vector {text!r}: {exc}") from None


def _weight(rd, text, flag):
    """A weight given by `flag`, of the datum's rank."""
    v = _vector(text)
    if len(v) != rd.rank:
        raise click.UsageError(f"{flag} {text} has length {len(v)}, not the rank {rd.rank}")
    return v


def _load_datum(group, rd_file):
    if (group is None) == (rd_file is None):
        raise click.UsageError("give exactly one of --group or --rd-file")
    try:
        if group is not None:
            return rdmod.standard(group)
        raw = json.loads(Path(rd_file).read_text())
        if not isinstance(raw, dict):
            raise click.UsageError("root datum file must hold a JSON object")
        return rdmod.RootDatum.from_dict(raw)
    except (OSError, KeyError, TypeError, MalformedMatrixError,
            json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot load root datum: {exc}") from None


def _load_form(rd, q_exp, q_tau, form_file):
    if form_file is not None:
        try:
            raw = json.loads(Path(form_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot load form file: {exc}") from None
        if not isinstance(raw, dict):
            raise click.UsageError("form file must hold a JSON object")
        if rd is None:
            ref = raw.get("root_datum")
            if not isinstance(ref, str):
                raise click.UsageError("form file does not name a root_datum")
            rd = _load_datum(None, str(Path(form_file).parent / ref))
        try:
            return rd, QForm.from_dict(rd, raw)
        except KeyError as exc:
            raise click.UsageError(f"form file lacks {exc}") from None
        except TypeError as exc:
            raise click.UsageError(f"bad form file: {exc}") from None
    if rd is None:
        raise click.UsageError("a root datum is required")
    a = _fraction(q_exp) if q_exp else Fraction(0)
    b = _fraction(q_tau) if q_tau else Fraction(0)
    gram, _ = qf.minimal_even_gram(rd)
    g0 = [[x * a for x in row] for row in gram]
    g1 = [[x * b for x in row] for row in gram]
    return rd, QForm(rd, g0, g1)


def _lattice_str(lat: Sublattice):
    if lat.rank == 0:
        return "0"
    if lat.ambient_rank == 1:
        return f"{lat.basis.data[0][0]}Z"
    rows = ["(" + ",".join(str(x) for x in r) + ")" for r in lat.basis.data]
    return "span{" + ", ".join(rows) + "}"


def _classify(datum: rdmod.RootDatum):
    if datum.num_simple == 0:
        return f"torus of rank {datum.rank}"
    if datum.num_simple == 1 and datum.rank == 1:
        pi1 = datum.pi1()
        if pi1.is_trivial():
            return "A1 (simply-connected)"
        if pi1.invariant_factors == (2,):
            return "A1 (adjoint)"
    cartan = "; ".join(",".join(str(x) for x in row) for row in datum.cartan_matrix)
    return f"cartan [{cartan}], pi1 {datum.pi1().describe()}"


def _mult_str(m):
    return "inf" if m is None else str(m)


def _echo_dual(td: dg.TwistedDual):
    click.echo(f"weight lattice: {_lattice_str(td.weight_sublattice)}")
    click.echo("multipliers: [" + ", ".join(_mult_str(m) for m in td.multipliers) + "]")
    if td.dropped:
        click.echo("dropped coroots: " + ", ".join(str(i) for i in td.dropped))
    click.echo(f"dual rank: {td.datum.rank}")
    click.echo("dual simple roots: "
               + json.dumps([list(r) for r in td.datum.simple_roots.data]))
    click.echo("dual simple coroots: "
               + json.dumps([list(r) for r in td.datum.simple_coroots.data]))
    click.echo(f"dual type: {_classify(td.datum)}")


class _Main(click.Group):
    """Maps a `ValueError` escaping any command to a domain error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise DomainError(str(exc)) from None


@click.group(cls=_Main)
def main():
    """Twisted dual root data from invariant quadratic forms."""


# orders, levels and twisting integers
_POSITIVE = click.IntRange(min=1)

_group_opts = [
    click.option("--group", help="standard group label, e.g. SL2, PGL3, Sp4, G2"),
    click.option("--rd-file", type=click.Path(), help="root datum JSON file"),
]


def _with_group(fn):
    for opt in reversed(_group_opts):
        fn = opt(fn)
    return fn


@main.command()
@_with_group
@click.option("--q-exp", help="rational a/b: form q0^f with q0 = e^(2 pi i a/b)")
@click.option("--q-tau", help="rational coefficient of the formal irrational part")
@click.option("--form-file", type=click.Path(), help="explicit Gram form JSON")
@click.option("--mode", type=click.Choice(["full", "coroot"]), default="full")
@click.option("--emit", type=click.Path(), help="write the dual datum as JSON")
def dual(group, rd_file, q_exp, q_tau, form_file, mode, emit):
    """Twisted dual of an invariant form."""
    rd = _load_datum(group, rd_file) if (group or rd_file) else None
    rd, form = _load_form(rd, q_exp, q_tau, form_file)
    td = dg.twisted_dual(rd, form, mode)
    click.echo(f"group: {rd.name or 'custom'}")
    click.echo(f"mode: {mode}")
    _echo_dual(td)
    if emit:
        try:
            Path(emit).write_text(json.dumps(td.to_dict(), indent=2) + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write --emit file: {exc}") from None


@main.command("langlands")
@_with_group
def langlands_cmd(group, rd_file):
    """Langlands dual (trivial form)."""
    rd = _load_datum(group, rd_file)
    td = dg.langlands_dual(rd)
    click.echo(f"group: {rd.name or 'custom'}")
    _echo_dual(td)


@main.command("fl-dual")
@_with_group
@click.option("--d", type=_POSITIVE, required=True)
@click.option("--n", "big_n", type=_POSITIVE, required=True, help="the level N")
def fl_dual_cmd(group, rd_file, d, big_n):
    """Finkelberg-Lysenko dual at level N with twisting integer d."""
    rd = _load_datum(group, rd_file)
    td = dg.fl_dual(rd, d, big_n)
    click.echo(f"group: {rd.name or 'custom'}  d: {d}  N: {big_n}")
    _echo_dual(td)


@main.command("lusztig-dual")
@_with_group
@click.option("--l", "order", type=_POSITIVE, required=True)
@click.option("--f", "f_values", help="comma list overriding the standard symmetrizers")
def lusztig_dual_cmd(group, rd_file, order, f_values):
    """Lusztig's dual datum at a root of unity of order l."""
    rd = _load_datum(group, rd_file)
    if f_values:
        f = _vector(f_values)
        if len(f) != rd.num_simple or min(f) < 1:
            raise click.UsageError(
                f"--f {f_values} must give {rd.num_simple} positive integers")
        cd = qf.CartanDatum(rd, f)
    else:
        cd = qf.CartanDatum.standard(rd)
    td = dg.lusztig_dual(cd, order)
    click.echo(f"group: {rd.name or 'custom'}  f: {list(cd.f)}  l: {order}")
    _echo_dual(td)


@main.command("quantum-pair")
@_with_group
@click.option("--n", "level", type=_POSITIVE, help="b = (1/N) normalized Killing")
@click.option("--gram-file", type=click.Path(), help="explicit rational Gram JSON")
def quantum_pair_cmd(group, rd_file, level, gram_file):
    """Both sides of the quantum-Langlands comparison, with the lattice map."""
    rd = _load_datum(group, rd_file)
    if (level is None) == (gram_file is None):
        raise click.UsageError("give exactly one of --n or --gram-file")
    if level is not None:
        b = [[x / level for x in row] for row in qf.normalized_killing_gram(rd)]
    else:
        try:
            raw = json.loads(Path(gram_file).read_text())
            b = qf.decode_gram(raw["gram"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"cannot load gram file: {exc}") from None
    pair = dg.quantum_dual_pair(rd, b)
    click.echo(f"group: {rd.name or 'custom'}")
    click.echo("left:")
    _echo_dual(pair.left)
    click.echo("right:")
    _echo_dual(pair.right)
    if pair.ok:
        click.echo("iso: " + json.dumps([list(r) for r in pair.iso.data]))
    else:
        raise DomainError("no connecting isomorphism found")


_KINDS = ("twisted", "fl", "lusztig", "langlands", "half-forms")


def _build_for_compare(kind, rd, params):
    if kind == "fl":
        if params["d"] is None or params["big_n"] is None:
            raise click.UsageError("fl needs --d and --n")
        return dg.fl_dual(rd, params["d"], params["big_n"])
    if kind == "lusztig":
        if params["order"] is None:
            raise click.UsageError("lusztig needs --l")
        cd = qf.CartanDatum.standard(rd)
        return dg.lusztig_dual(cd, params["order"])
    if kind == "langlands":
        return dg.langlands_dual(rd)
    if kind == "half-forms":
        return dg.twisted_dual(rd, qf.half_forms_qform(rd), "full")
    # twisted: an explicit form wins, else mirror the other construction
    if params["q_exp"] is not None or params["q_tau"] is not None:
        _, form = _load_form(rd, params["q_exp"], params["q_tau"], None)
        return dg.twisted_dual(rd, form, "full")
    other = params["other"]
    if other == "fl":
        scale = Fraction(params["d"], params["big_n"])
        g0 = [[x * scale for x in row] for row in qf.normalized_killing_gram(rd)]
        return dg.twisted_dual(rd, QForm(rd, g0), "full")
    if other == "lusztig":
        cd = qf.CartanDatum.standard(rd)
        return dg.twisted_dual(rd, qf.cartan_qform(cd, params["order"]), "coroot")
    if other in ("langlands", "half-forms"):
        return dg.langlands_dual(rd)
    raise click.UsageError("twisted vs twisted needs --q-exp")


@main.command()
@click.argument("first", type=click.Choice(_KINDS))
@click.argument("second", type=click.Choice(_KINDS))
@_with_group
@click.option("--d", type=_POSITIVE)
@click.option("--n", "big_n", type=_POSITIVE)
@click.option("--l", "order", type=_POSITIVE)
@click.option("--q-exp")
@click.option("--q-tau")
def compare(first, second, group, rd_file, d, big_n, order, q_exp, q_tau):
    """Build two dual constructions and report AGREE / DISAGREE / UNDECIDED."""
    rd = _load_datum(group, rd_file)
    params = {"d": d, "big_n": big_n, "order": order,
              "q_exp": q_exp, "q_tau": q_tau, "other": second}
    left = _build_for_compare(first, rd, params)
    params["other"] = first
    right = _build_for_compare(second, rd, params)
    result = dg.isomorphic(left.datum, right.datum)
    if result.status == "iso":
        click.echo("AGREE")
        click.echo("witness: " + json.dumps([list(r) for r in result.weight_map.data]))
    elif result.status == "none":
        click.echo("DISAGREE")
        click.echo("first:  " + json.dumps(left.datum.to_dict(), sort_keys=True))
        click.echo("second: " + json.dumps(right.datum.to_dict(), sort_keys=True))
        raise SystemExit(1)
    else:
        click.echo("UNDECIDED")
        raise SystemExit(1)


@main.command()
@_with_group
@click.option("--hw", required=True, help="dominant weight, comma separated")
def weights(group, rd_file, hw):
    """Weight multiplicities of an irreducible, as a sorted table."""
    rd = _load_datum(group, rd_file)
    click.echo(ch.irreducible_character(rd, _weight(rd, hw, "--hw")).table())


@main.command()
@_with_group
@click.option("--a", "hw1", required=True)
@click.option("--b", "hw2", required=True)
def tensor(group, rd_file, hw1, hw2):
    """Tensor decomposition of two irreducibles."""
    rd = _load_datum(group, rd_file)
    pieces = ch.tensor_decompose(ch.irreducible_character(rd, _weight(rd, hw1, "--a")),
                                 _weight(rd, hw2, "--b"))
    for w, m in sorted(pieces.items()):
        click.echo(f"{','.join(str(x) for x in w)}: {m}")


@main.command()
@click.option("--rank", type=int, default=1, show_default=True)
@click.option("--a", "a_text", required=True, help="coweights, ';' between points")
@click.option("--b", "b_text", required=True)
def incidence(rank, a_text, b_text):
    """Finest diagonal over which two components meet."""
    def parse(text):
        if rank == 1:
            return [(int(x),) for x in text.split(",")]
        points = [_vector(part) for part in text.split(";")]
        for v in points:
            if len(v) != rank:
                raise click.UsageError(
                    f"coweight {','.join(map(str, v))} has length {len(v)}, not --rank {rank}")
        return points
    try:
        a = gc.ComponentIndex.of(parse(a_text))
        b = gc.ComponentIndex.of(parse(b_text))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if a.n != b.n:
        raise DomainError("component indices have different lengths")
    p = gc.incident(a, b)
    if p is None:
        click.echo("disjoint over every diagonal")
        raise SystemExit(1)
    click.echo(f"meet over {p}")


@main.command("rank1-table")
@click.option("--r0", type=_POSITIVE, required=True)
@click.option("--p", type=int, default=1, show_default=True)
def rank1_table_cmd(r0, p):
    """Kernels of the rank-one form of order r0, in adjoint coordinates."""
    t = dg.rank1_table(r0, p)
    click.echo(f"r0: {t.r0}  p: {t.p}  case: {t.case}")
    click.echo(f"PGL2 kernel: {_lattice_str(t.adjoint_kernel)}")
    click.echo(f"SL2 kernel:  {_lattice_str(t.simply_connected_kernel)}")


@main.command()
@_with_group
@click.option("--component", type=int, default=0, show_default=True)
@click.option("--a-exp", default="0", show_default=True)
@click.option("--a-tau", default="0", show_default=True)
def killing(group, rd_file, component, a_exp, a_tau):
    """Killing-type form of one irreducible component at a given value."""
    rd = _load_datum(group, rd_file)
    a = Exponent(_fraction(a_exp), _fraction(a_tau))
    form = qf.killing_qform(rd, component, a)
    click.echo(f"group: {rd.name or 'custom'}  component: {component}  a: {a}")
    click.echo("gram_rational: "
               + json.dumps([[str(x) for x in row] for row in form.g0]))
    for i in range(rd.num_simple):
        cor = rd.simple_coroots.row(i)
        click.echo(f"Q(coroot_{i}) = {form.q(cor)}")


@main.command()
@_with_group
def validate(group, rd_file):
    """Full root-datum validation with a structural summary."""
    rd = _load_datum(group, rd_file)
    click.echo(f"group: {rd.name or 'custom'}")
    click.echo(f"rank: {rd.rank}")
    click.echo(f"simple roots: {rd.num_simple}")
    click.echo(f"roots: {len(rd.root_pairs)}")
    click.echo(f"weyl order: {rd.weyl_order()}")
    click.echo(f"pi1: {rd.pi1().describe()}")
    click.echo("OK")


@main.command("verify-forms")
@_with_group
@click.option("--samples", type=click.IntRange(min=0), default=25, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--coord-bound", type=click.IntRange(min=0), default=5, show_default=True)
def verify_forms(group, rd_file, samples, seed, coord_bound):
    """Spot-check the form laws and the divisor ledger on random forms."""
    rd = _load_datum(group, rd_file)
    if rd.rank == 0:
        raise click.UsageError("verify-forms needs a datum of rank >= 1")
    basis = qf.invariant_gram_basis(rd)
    rng = random.Random(seed)

    def rand_gram():
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in basis]
        return [
            [sum(c * b[i][j] for c, b in zip(coeffs, basis))
             for j in range(rd.rank)]
            for i in range(rd.rank)
        ]

    failures = 0
    for k in range(samples):
        form = QForm(rd, rand_gram() if basis else None,
                     rand_gram() if basis else None)
        lam = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(rd.rank))
        mu = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(rd.rank))
        nu = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(rd.rank))
        checks = {
            "quadratic-law": (form.q(tuple(a + b for a, b in zip(lam, mu)))
                              == form.q(lam) + form.q(mu) + form.kappa(lam, mu)),
            "kappa-symmetric": form.kappa(lam, mu) == form.kappa(mu, lam),
            "ledger-bilinear": dc.verify_bilinearity(form, lam, mu, nu),
            "ledger-quadratic": dc.verify_quadratic(form, lam, mu),
        }
        for i in range(rd.num_simple):
            cor = rd.simple_coroots.row(i)
            checks[f"epsilon-{i}"] = qf.epsilon_defect(form, cor, lam).is_zero()
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures += 1
            click.echo(f"FAIL sample {k}: {', '.join(bad)}")
    # tampered ledgers must be detected
    form = QForm(rd, basis[0] if basis else None)
    lam = (1,) * rd.rank
    mu = tuple(range(1, rd.rank + 1))
    nu = (1,) + (0,) * (rd.rank - 1)
    ledger = dc.ledger_for_components(form, [lam, mu, nu])
    tampered = ledger.with_pairwise(0, 1, form.kappa(lam, mu) + Exponent.of(Fraction(1, 2)))
    if dc.verify_bilinearity(form, lam, mu, nu, tampered):
        failures += 1
        click.echo("FAIL tamper: corrupted ledger went undetected")
    if failures:
        raise DomainError(f"{failures} failures")
    click.echo(f"PASS {samples} samples on {rd.name or 'custom'}")


if __name__ == "__main__":
    main()
