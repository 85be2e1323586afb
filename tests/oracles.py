"""Brute-force reference implementations used to cross-check the engine.

Everything here works on frozensets and explicit enumeration -- no bitmasks,
no caching, no periodicity shortcuts -- so agreement with the package is a
meaningful check and not a tautology.  Only intended for small orders.
"""

from itertools import combinations, combinations_with_replacement

from hyperring_lab import ProperIdealRequired

TAGS = ("frozenset oracle",)


def tables(ring):
    """Raw tables of a packaged ring as lists and frozensets."""
    n = ring.order
    add = [[ring.add[a][b] for b in range(n)] for a in range(n)]
    mul = [
        [frozenset(x for x in range(n) if ring.mul[a][b] >> x & 1) for b in range(n)]
        for a in range(n)
    ]
    return n, add, mul


def find_zero(n, add):
    for z in range(n):
        if all(add[z][a] == a for a in range(n)):
            return z
    raise AssertionError("no additive identity")


def neg_table(n, add):
    zero = find_zero(n, add)
    return [next(b for b in range(n) if add[a][b] == zero) for a in range(n)]


def set_product(mul, A, B):
    out = set()
    for a in A:
        for b in B:
            out |= mul[a][b]
    return frozenset(out)


def set_sum(add, A, B):
    return frozenset(add[a][b] for a in A for b in B)


def power(mul, a, k):
    acc = frozenset([a])
    for _ in range(k - 1):
        acc = set_product(mul, acc, frozenset([a]))
    return acc


def all_powers(mul, a):
    """Every distinct hyperpower of a, by following S -> S*{a} to a repeat."""
    seen = []
    acc = frozenset([a])
    while acc not in seen:
        seen.append(acc)
        acc = set_product(mul, acc, frozenset([a]))
    return seen


def axiom_report(n, add, mul):
    report = {}
    report["add_closed"] = all(0 <= add[a][b] < n for a in range(n) for b in range(n))
    report["add_associative"] = all(
        add[add[a][b]][c] == add[a][add[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )
    report["add_commutative"] = all(
        add[a][b] == add[b][a] for a in range(n) for b in range(n)
    )
    try:
        zero = find_zero(n, add)
        report["add_identity"] = True
    except AssertionError:
        report["add_identity"] = False
        zero = None
    report["add_inverses"] = zero is not None and all(
        any(add[a][b] == zero for b in range(n)) for a in range(n)
    )
    report["mul_nonempty"] = all(len(mul[a][b]) > 0 for a in range(n) for b in range(n))
    report["mul_commutative"] = all(
        mul[a][b] == mul[b][a] for a in range(n) for b in range(n)
    )
    singleton = lambda x: frozenset([x])
    report["mul_associative"] = all(
        set_product(mul, mul[a][b], singleton(c))
        == set_product(mul, singleton(a), mul[b][c])
        for a in range(n) for b in range(n) for c in range(n)
    )
    report["distributive_inclusion"] = all(
        mul[a][add[b][c]] <= set_sum(add, mul[a][b], mul[a][c])
        for a in range(n) for b in range(n) for c in range(n)
    )
    if zero is None:
        report["sign_rule"] = False
    else:
        neg = neg_table(n, add)
        report["sign_rule"] = all(
            mul[a][neg[b]] == frozenset(neg[x] for x in mul[a][b])
            for a in range(n) for b in range(n)
        )
    return report


def subgroup_closure(n, add, subset):
    """Least set holding the subset and 0 that is closed under addition and
    negation, by adding sums and negatives until nothing changes."""
    neg = neg_table(n, add)
    cur = frozenset(subset) | {find_zero(n, add)}
    while True:
        nxt = cur | {neg[a] for a in cur} | {add[a][b] for a in cur for b in cur}
        if nxt == cur:
            return cur
        cur = frozenset(nxt)


def is_ideal(n, add, mul, subset):
    if not subset:
        return False
    neg = neg_table(n, add)
    for a in subset:
        for b in subset:
            if add[a][neg[b]] not in subset:
                return False
    for a in subset:
        for r in range(n):
            if not mul[a][r] <= subset:
                return False
    return True


def all_ideals(n, add, mul):
    found = []
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            if is_ideal(n, add, mul, frozenset(combo)):
                found.append(frozenset(combo))
    return found


def subgroup_walk_ideals(n, add, mul):
    """Every ideal, ascending by size then members, from the additive subgroups.

    Subgroups are found breadth-first from {0} by adjoining one element at a
    time (every subgroup arises that way), then filtered for absorption.  The
    subgroup generated by a subgroup S and x is the union of the cosets
    S + kx for k = 0, 1, .. up to the first multiple of x inside S.
    """
    zero = find_zero(n, add)
    start = frozenset([zero])
    groups = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for group in frontier:
            for x in range(n):
                if x in group:
                    continue
                bigger = set(group)
                kx = x
                while kx not in group:
                    bigger |= {add[kx][g] for g in group}
                    kx = add[kx][x]
                bigger = frozenset(bigger)
                if bigger not in groups:
                    groups.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    ideals = [sorted(g) for g in groups if is_ideal(n, add, mul, g)]
    return sorted(ideals, key=lambda xs: (len(xs), xs))


def tuple_product(mul, tup):
    """Left-to-right product of the elements of a nonempty tuple."""
    acc = frozenset([tup[0]])
    for x in tup[1:]:
        acc = set_product(mul, acc, frozenset([x]))
    return acc


def first_absorbing_witness(n, mul, Q, deg):
    """Lexicographically first nondecreasing (deg+1)-tuple with its product in Q
    and no product of deg of its entries in Q, or None."""
    for tup in combinations_with_replacement(range(n), deg + 1):
        if tuple_product(mul, tup) <= Q and not any(
            tuple_product(mul, tup[:i] + tup[i + 1:]) <= Q for i in range(deg + 1)
        ):
            return tup
    return None


def is_prime_ideal(n, add, mul, Q):
    if len(Q) == n:
        return False
    for a in range(n):
        for b in range(n):
            if mul[a][b] <= Q and a not in Q and b not in Q:
                return False
    return True


def radical(n, add, mul, Q):
    primes = [P for P in all_ideals(n, add, mul) if Q <= P and is_prime_ideal(n, add, mul, P)]
    out = frozenset(range(n))
    for P in primes:
        out &= P
    return out


def sn_closed(n, add, mul, Q, s, n_exp):
    for a in range(n):
        if power(mul, a, s) <= Q and not power(mul, a, n_exp) <= Q:
            return False
    return True


def weakly_sn_closed(n, add, mul, Q, s, n_exp):
    zero = find_zero(n, add)
    for a in range(n):
        ps = power(mul, a, s)
        if zero not in ps and ps <= Q and not power(mul, a, n_exp) <= Q:
            return False
    return True


def omega(n, add, mul, Q, s):
    for k in range(1, s + 1):
        if sn_closed(n, add, mul, Q, s, k):
            return k
    raise AssertionError("unreachable")


def class_C(n, mul):
    """All nonempty products of elements, plus the singletons."""
    found = {frozenset([a]) for a in range(n)}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for b in range(n):
            nxt = set_product(mul, base, frozenset([b]))
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    return found


def class_U(n, add, mul):
    """Closure of the products under pairwise set sums."""
    found = set(class_C(n, mul))
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for other in list(found):
            nxt = set_sum(add, base, other)
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    return found


def gamma_star_partition(n, add, mul):
    """Transitive closure of 'both lie in one summed product', as a partition."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in class_U(n, add, mul):
        views = sorted(u)
        for x in views[1:]:
            parent[root(x)] = root(views[0])
    groups = {}
    for x in range(n):
        groups.setdefault(root(x), set()).add(x)
    return sorted(frozenset(g) for g in groups.values())


def class_ring_tables(n, add, mul):
    """Classes of `gamma_star_partition` ordered by least member, with the
    class sum and class product read at every pair of members; each must be
    one class, the same for every pair."""
    classes = sorted(gamma_star_partition(n, add, mul), key=min)
    of = {x: i for i, c in enumerate(classes) for x in c}
    k = len(classes)
    cadd = [[None] * k for _ in range(k)]
    cmul = [[None] * k for _ in range(k)]
    for a in range(n):
        for b in range(n):
            i, j = of[a], of[b]
            (prod,) = {of[x] for x in mul[a][b]}
            assert cadd[i][j] in (None, of[add[a][b]]), (a, b)
            assert cmul[i][j] in (None, prod), (a, b)
            cadd[i][j], cmul[i][j] = of[add[a][b]], prod
    return classes, cadd, cmul


def ring_power(mul, x, k):
    """k-th power of x in an ordinary ring given by a single-valued table."""
    out = x
    for _ in range(k - 1):
        out = mul[out][x]
    return out


def ring_ideal_closed(mul, J, s, n_exp):
    """(s,n)-closedness of an ideal J, a set of elements of an ordinary ring."""
    if len(J) == len(mul):
        raise ProperIdealRequired("closedness needs a proper ideal")
    return all(
        ring_power(mul, x, n_exp) in J
        for x in range(len(mul))
        if ring_power(mul, x, s) in J
    )


def is_i_set(n, add, mul, xs, zero):
    if not xs or xs <= {zero}:
        return False
    for x in range(n):
        acc = None
        for e in sorted(xs):
            acc = mul[x][e] if acc is None else set_sum(add, acc, mul[x][e])
        if x not in acc:
            return False
    return True


def all_i_sets(n, add, mul):
    zero = find_zero(n, add)
    out = []
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            if is_i_set(n, add, mul, frozenset(combo), zero):
                out.append(frozenset(combo))
    return out


def regular(n, add, mul, a, s, n_exp):
    ps = power(mul, a, s)
    pn = power(mul, a, n_exp)
    return any(pn <= set_product(mul, ps, frozenset([b])) for b in range(n))


def Regular_subsets(n, add, mul, a, s, n_exp):
    """Existence over every nonempty subset, with no monotonicity shortcut."""
    ps = power(mul, a, s)
    pn = power(mul, a, n_exp)
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            if pn <= set_product(mul, ps, frozenset(combo)):
                return True
    return False


def pair_index(r2_order, x1, x2):
    """Carrier index of the pair (x1, x2) in a direct product."""
    return x1 * r2_order + x2


def pair_split(r2_order, x):
    return divmod(x, r2_order)
