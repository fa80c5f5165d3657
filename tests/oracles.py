"""Element listings, kept as oracles for the relation-lattice code.

The package never lists the elements of a group; these helpers do, on groups
small enough for a test, and check its results by a second route.
"""

import itertools
from fractions import Fraction
from math import gcd

from k3lat.discform import FiniteSubgroup, SubgroupMap


def elements(form):
    """Every element of a discriminant form, in lexicographic order."""
    return list(itertools.product(*(range(o) for o in form.orders)))


def closure(form, gens):
    """Element set generated by gens, by closure under addition."""
    seen = {form.zero()}
    frontier = [form.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = form.add(x, form.reduce(g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def subgroup_elements(sub):
    """Every element of a subgroup, sorted."""
    return tuple(sorted(closure(sub.ambient, sub.gens)))


def all_subgroups(form):
    """Every subgroup, by closing combinations of elements; sorted by gens.

    A subgroup of a group on k cyclic generators is generated by k elements,
    so it is a sum of at most k cyclic subgroups: close each element, then add
    one cyclic subgroup at a time.
    """
    cyclic = {}
    for x in elements(form):
        sub = FiniteSubgroup.generated_by(form, [x])
        cyclic.setdefault(sub.gens, sub)
    found, level = dict(cyclic), cyclic
    for _ in range(form.ngens - 1):
        nxt = {}
        for h in level.values():
            for c in cyclic.values():
                sub = FiniteSubgroup.generated_by(form, h.gens + c.gens)
                nxt.setdefault(sub.gens, sub)
        found.update(nxt)
        level = nxt
    return [found[key] for key in sorted(found)]


def subgroup_isometries(v, w):
    """Form isometries V -> W, with each generator's candidate images drawn from
    W's element list; sorted by images."""
    if v.invariant_factors != w.invariant_factors:
        return []
    members = subgroup_elements(w)
    candidates = [
        [x for x in members if not any(w.ambient.scale(s, x))] for s in v.invariant_factors
    ]
    maps = (SubgroupMap(v, w, images) for images in itertools.product(*candidates))
    return [g for g in maps if g.is_bijective and g.preserves_q]


def q_generator(glue):
    """(x0, y0 in [1, 2n]) of the first element of the sorted perp listing that
    generates the glue quotient with q = 1/(2t); None when none does."""
    res = glue.quotient_result
    two_t = 2 * glue.t
    k = glue.source_form.ngens
    for elem in subgroup_elements(res.gamma_perp):
        cls = res.project(elem)
        if len(cls) != 1 or gcd(cls[0], two_t) != 1:
            continue
        if res.product.q_of(elem) == Fraction(1, two_t):
            return elem[:k], (elem[k] or 2 * glue.ambient_n)
    return None
