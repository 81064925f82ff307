"""Tensor decomposition by repeated extraction of a maximal weight, kept
apart from the library's Brauer-Klimyk rule so that the tests check it
against an independent routine: this one multiplies both characters out
and peels irreducibles off the product."""

from twistdual.characters import CharacterError, irreducible_character
from twistdual.rootdata import dot, vec_add


def tensor_decompose(c1, c2):
    """Constituents of the product character, as a dict highest weight ->
    multiplicity, by repeated extraction of a maximal weight."""
    if c1.rd != c2.rd:
        raise CharacterError("characters live on different root data")
    rd = c1.rd
    product = {}
    for w1, m1 in c1.multiplicities:
        for w2, m2 in c2.multiplicities:
            w = vec_add(w1, w2)
            product[w] = product.get(w, 0) + m1 * m2
    remaining = dict(product)
    # strictly positive height functional on the positive cone
    rho_check = [0] * rd.rank
    for _, cobeta in rd.positive_root_pairs:
        rho_check = [a + b for a, b in zip(rho_check, cobeta)]
    out = {}
    pieces = {}
    while remaining:
        top = max(remaining, key=lambda w: (dot(w, rho_check), w))
        if not rd.is_dominant_weight(top):
            raise CharacterError(f"maximal weight {top} is not dominant")
        mult = remaining[top]
        if mult < 0:
            raise CharacterError(f"negative multiplicity at {top}")
        pieces[top] = irreducible_character(rd, top)
        for w, m in pieces[top].multiplicities:
            left = remaining.get(w, 0) - mult * m
            if left < 0:
                raise CharacterError(f"inconsistent product at {w}")
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
        out[top] = out.get(top, 0) + mult
    # the constituents must reassemble the product exactly
    rebuilt = {}
    for top, mult in out.items():
        for w, m in pieces[top].multiplicities:
            rebuilt[w] = rebuilt.get(w, 0) + mult * m
    assert rebuilt == product
    return out
