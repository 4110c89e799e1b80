"""Independent reference implementations the tests check the package against.

These deliberately avoid the shipped code paths: the fixpoint here is a
naive repeated scan, the closure oracle enumerates every body and keeps
the minimal ones by comparing every pair, and model sets come from full
truth-table enumeration.  Earlier rules are kept as references and do
use shipped code: `closure_equality_accept`, the earlier acceptance rule,
compares closures built by the shipped `_hclose` (itself checked against
`brute_hclose`), `ucl_entailment_accept`, the acceptance rule after it,
derives every input clause that fires from the body with the shipped
`propagate`, `product_order_oracle`, the earlier oracle, tests
every single-head assignment in `itertools.product` order with the
shipped `propagate`, `product_order_search`, the earlier candidate
loop, runs the shipped filters and `check_accept` on every candidate one
by one, `closure_rest_need`, the earlier pre-check of filter 1,
builds the whole `rest` closure with the shipped `_hclose`, and
`listed_rcn_equality`, the earlier forward check of filter 3, runs the
shipped `propagate` over every option of the later heads listed as a
clause.  The earlier text edge is kept too: `trial_body_text` and
`trial_clause_text` write a text, parse it back with the shipped parser
and fall back to a comma form when it does not read back, and
`two_path_expand_item` expands `->` and `=` items on separate paths over
the shipped `_tokenize_side`.  The earlier forward-chaining kernel is kept
as `counting_propagate`, Dowling-Gallier counting over watch lists, which
also gives the fired clause indexes in firing order, and the earlier
`bit_ids`, which peels the lowest set bit one at a time, as
`loop_bit_ids`.  The earlier pool closure is kept as `stack_hclose`: a
stack saturation over the shipped `_keep` that resolves each kept clause
against every clause with `resolve_on_head` and pushes every resolvent.
"""

from __future__ import annotations

import itertools

from singlehead.closure import _hclose, _keep, _Kept
from singlehead.formula import (Clause, Formula, ParseError, _expand_item,
                                _tokenize_side, all_bodies, bit_ids,
                                clause_key, parse_variables, propagate)
from singlehead.oracle import UniverseTooLarge
from singlehead.reconstruct import (FILTER_NAMES, IterationTrace,
                                    _body_vars, candidate_space,
                                    check_accept, compute_heads,
                                    filter_body_coverage, filter_maxit,
                                    filter_rcn_equality)


def naive_propagate(clauses, seed: int) -> tuple[int, int, set[int]]:
    """Fixpoint over `(head, body)` pairs by rescanning every pair until
    nothing changes.  Returns the closure, the heads of the pairs whose body
    lies inside it, and the indexes of those pairs."""
    closure = seed
    changed = True
    while changed:
        changed = False
        for head, body in clauses:
            if body & closure == body and not closure >> head & 1:
                closure |= 1 << head
                changed = True
    fired = {i for i, (_, body) in enumerate(clauses)
             if body & closure == body}
    heads = 0
    for i in fired:
        heads |= 1 << clauses[i][0]
    return closure, heads, fired


def loop_bit_ids(mask: int) -> tuple[int, ...]:
    """Ascending ids set in a mask, by peeling off its lowest set bit."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


def counting_propagate(clauses, seed: int) -> tuple[int, int, list[int]]:
    """Forward chaining by counting (Dowling & Gallier, JLP 1984): each
    `(head, body)` pair counts its body variables not yet derived and fires
    when the count reaches zero.  Returns the closure, the heads of the
    fired pairs, and the fired pair indexes in firing order.  Time is
    linear in the total size of the pairs."""
    counts = []
    watch: dict[int, list[int]] = {}   # variable bit -> pairs missing it
    fired: list[int] = []
    for i, (_, body) in enumerate(clauses):
        missing = body & ~seed
        counts.append(missing.bit_count())
        if not missing:
            fired.append(i)
        while missing:
            bit = missing & -missing
            watch.setdefault(bit, []).append(i)
            missing ^= bit
    closure = seed
    fired_heads = 0
    # `fired` is the queue: the loop also visits the indexes appended to it
    for i in fired:
        bit = 1 << clauses[i][0]
        fired_heads |= bit
        if not closure & bit:
            closure |= bit
            for j in watch.get(bit, ()):
                counts[j] -= 1
                if not counts[j]:
                    fired.append(j)
    return closure, fired_heads, fired


def resolve_on_head(side: Clause, target: Clause):
    """Resolve the side clause's head away from the target clause's body.

    Returns the resolvent keeping the target's head, or None when the
    clauses do not resolve or the resolvent is tautological.
    """
    if not target.body >> side.head & 1:
        return None
    new_body = (target.body & ~(1 << side.head)) | side.body
    if new_body >> target.head & 1:
        return None
    return Clause(target.head, new_body)


def stack_hclose(heads_mask: int, clauses) -> frozenset[Clause]:
    """`_hclose` as a stack-driven saturation: each popped clause that
    `_keep` admits is resolved against every clause with `resolve_on_head`,
    and every resolvent is pushed, repeats included."""
    kept = _Kept()
    stack = [c for c in clauses
             if heads_mask >> c.head & 1 and not c.is_tautology()]
    while stack:
        target = stack.pop()
        if _keep(kept, target):
            stack.extend(r for side in clauses
                         if (r := resolve_on_head(side, target)) is not None)
    return frozenset(kept.live())


def closure_equality_accept(state, body: int, with_candidate) -> bool:
    """Acceptance by equal head-bounded closures: the non-tautological
    clauses of `with_candidate` that fire from the body derive the input's
    variables, and their closure over those variables is the input's."""
    analysis = state.analyses[body]
    clauses = [c for c in with_candidate if not c.is_tautology()]
    _, fired, fired_at = naive_propagate(clauses, body)
    if fired != analysis.rcn_mask:
        return False
    usable = [clauses[i] for i in fired_at]
    return _hclose(fired, usable) == _hclose(analysis.rcn_mask, analysis.ucl)


def ucl_entailment_accept(state, body: int, with_candidate) -> bool:
    """Acceptance by entailment of every input clause that fires from the
    body (`ucl`), retired classes' clauses included: one `propagate` per
    clause."""
    return all(propagate(with_candidate, c.body)[0] >> c.head & 1
               for c in state.analyses[body].ucl)


def product_order_oracle(f: Formula, max_vars: int):
    """First single-head formula equivalent to `f`, or None: every
    assignment of an entailed body or none to each variable, tried in
    `itertools.product` order until one entails every input clause."""
    n = len(f.universe)
    if n > max_vars:
        raise UniverseTooLarge(f"{n} variables; guarded to {max_vars}")
    options = [[None] + [body for body in all_bodies(n, without=v)
                         if propagate(f.clauses, body)[0] >> v & 1]
               for v in range(n)]
    required: dict[int, int] = {}
    for c in f.clauses:
        required[c.body] = required.get(c.body, 0) | 1 << c.head
    for combo in itertools.product(*options):
        clauses = tuple(Clause(v, body) for v, body in enumerate(combo)
                        if body is not None)
        if all(not heads & ~propagate(clauses, body)[0]
               for body, heads in required.items()):
            return Formula(f.universe, clauses)
    return None


def closure_rest_need(state, body: int) -> int:
    """Filter 1's pre-check from the whole `rest` closure, the minimal
    consequences with an already-headed head: their free body variables
    that the pool's bodies do not supply.  It passes when there are
    none."""
    analysis = state.analyses[body]
    heads = compute_heads(state, body)
    pool, _ = candidate_space(state, body, reduce_pool=False)
    rest = _hclose(analysis.rcn_mask & ~heads, analysis.ucl)
    return _body_vars(c.body for c in rest) & ~state.g_body_vars \
        & ~_body_vars(c.body for c in pool)


def listed_rcn_equality(state, body: int, with_candidate, pool_bodies,
                        later: int, exclude_tautological: bool) -> bool:
    """Filter 3 with the later heads' options listed: every pool body
    derives exactly the body's `rcn` under `with_candidate` plus one
    `(head, body)` pair for each head of `later` and each of its options."""
    clauses = list(with_candidate) + [
        (h, b) for h in bit_ids(later) for b in pool_bodies
        if not (exclude_tautological and b >> h & 1)]
    target = state.analyses[body].rcn_mask
    return all(propagate(clauses, other)[1] == target
               for other in pool_bodies)


def product_order_search(state, body: int, options):
    """`run_iteration` testing every candidate on its own, in
    `itertools.product` order: returns (trace, failure)."""
    analysis = state.analyses[body]
    heads = compute_heads(state, body)
    pool, reduced = candidate_space(state, body, options.minbodies)
    pool_bodies = sorted({c.body for c in reduced}, key=bit_ids)
    head_ids = bit_ids(heads)
    free = ~state.g_body_vars
    need = _body_vars(c.body for c in pool) & free
    hits = dict.fromkeys(FILTER_NAMES, 0)
    trace = IterationTrace(body, heads, len(pool), len(reduced), 0, hits,
                           None)
    if options.body_coverage:
        rest = _hclose(analysis.rcn_mask & ~heads, analysis.ucl)
        if not filter_body_coverage(_body_vars(c.body for c in rest) & free,
                                    (c.body for c in pool)):
            hits["body_coverage"] += 1
            return trace, "body_coverage"
    if options.head_reachability and not filter_maxit(state, body, heads):
        hits["head_reachability"] += 1
        return trace, "head_reachability"
    for bodies in itertools.product(*(
            [b for b in pool_bodies
             if not (options.body_coverage and b >> h & 1)]
            for h in head_ids)):
        if options.budget is not None \
                and trace.candidates_tested >= options.budget:
            return trace, "budget"
        trace.candidates_tested += 1
        if options.body_coverage and not filter_body_coverage(need, bodies):
            hits["body_coverage"] += 1
            continue
        with_candidate = state.g + list(zip(head_ids, bodies))
        if options.consequence_equality and not filter_rcn_equality(
                state, body, with_candidate, pool_bodies):
            hits["consequence_equality"] += 1
            continue
        if check_accept(state, body, with_candidate):
            trace.accepted = tuple(map(Clause, head_ids, bodies))
            return trace, None
    return trace, "exhausted"


def naive_bcn(f: Formula, seed: int) -> int:
    return naive_propagate(f.clauses, seed)[0]


def naive_entails(f: Formula, body: int, head: int) -> bool:
    if body >> head & 1:
        return True
    return bool(naive_bcn(f, body) >> head & 1)


def naive_body_leq(f: Formula, a: int, b: int) -> bool:
    """Body order: a <= b when the formula entails b -> a."""
    return not a & ~naive_bcn(f, b)


def naive_body_lt(f: Formula, a: int, b: int) -> bool:
    return naive_body_leq(f, a, b) and not naive_body_leq(f, b, a)


def naive_body_equiv(f: Formula, a: int, b: int) -> bool:
    return naive_body_leq(f, a, b) and naive_body_leq(f, b, a)


def naive_minimal(clauses) -> tuple[Clause, ...]:
    """The clauses whose body is no strict superset of a same-head body,
    by comparing every pair, in canonical order without duplicates."""
    clauses = set(clauses)
    return tuple(sorted(
        (c for c in clauses
         if not any(o.head == c.head and o.body != c.body
                    and o.body & c.body == o.body for o in clauses)),
        key=clause_key))


def brute_hclose(heads_mask: int, f: Formula) -> tuple[Clause, ...]:
    """Every minimal entailed non-tautological clause with a head in the set,
    found by trying all bodies."""
    n = len(f.universe)
    found = []
    for head in bit_ids(heads_mask):
        for body in all_bodies(n, without=head):
            if naive_bcn(f, body) >> head & 1:
                found.append(Clause(head, body))
    return naive_minimal(found)


def naive_minbodies(candidates, context: Formula) -> set[Clause]:
    """Per head, the canonical-first body of every sink class of the "body
    plus context entails body" preorder, with classes built explicitly."""
    kept = set()
    for head in {c.head for c in candidates}:
        bodies = sorted({c.body for c in candidates if c.head == head},
                        key=bit_ids)
        entails = {(a, b) for a in bodies for b in bodies
                   if not b & ~naive_bcn(context, a)}
        classes = {frozenset(o for o in bodies
                             if (b, o) in entails and (o, b) in entails)
                   for b in bodies}
        for cls in classes:
            if all(o in cls for (a, o) in entails if a in cls):
                kept.add(Clause(head, min(cls, key=bit_ids)))
    return kept


def model_masks(f: Formula) -> set[int]:
    """All satisfying truth assignments, as variable masks."""
    n = len(f.universe)
    out = set()
    for m in range(1 << n):
        if all(c.body & m != c.body or m >> c.head & 1 for c in f.clauses):
            out.add(m)
    return out


def projected_models(f: Formula, keep_names) -> set[frozenset[str]]:
    """Model set restricted to the kept variables, as name sets."""
    u = f.universe
    keep = frozenset(keep_names)
    out = set()
    for m in model_masks(f):
        out.add(frozenset(name for name in u.names_of(m) if name in keep))
    return out


def all_keep_sets(names):
    for r in range(len(names) + 1):
        yield from itertools.combinations(names, r)


def trial_body_text(universe, mask: int) -> str:
    """`Universe.body_text` by trial parsing: the names joined without
    commas when every name of the universe is one lowercase letter, else
    with commas, and a lone name with a comma after it unless it parses
    back alone."""
    names = [universe.names[i] for i in bit_ids(mask)]
    if all(len(n) == 1 and n.isalpha() and n.islower()
           for n in universe.names):
        return "".join(names)
    text = ",".join(names)
    if len(names) == 1:
        try:
            if parse_variables(text) == names:
                return text
        except ParseError:
            pass
        return text + ","
    return text


def trial_clause_text(universe, clause: Clause) -> str:
    """`Universe.clause_text` by trial parsing: `body->head`, or
    `body,->head` when that does not parse back to the clause."""
    body = [universe.names[i] for i in bit_ids(clause.body)]
    head = universe.names[clause.head]
    text = trial_body_text(universe, clause.body) + "->" + head
    try:
        if _expand_item(text)[1] == [(body, head)]:
            return text
    except ParseError:
        pass
    return ",".join(body) + ",->" + head


def two_path_expand_item(item: str):
    """`_expand_item` with the `->` and `=` cases each partitioning,
    checking for a second operator and tokenizing on their own."""
    comma_mode = "," in item
    if "->" in item:
        left, sep, right = item.partition("->")
        if "->" in right:
            raise ParseError("more than one '->'", item,
                             len(left) + len(sep) + right.index("->"))
        body = _tokenize_side(left, item, 0, comma_mode)
        heads = _tokenize_side(right, item, len(left) + len(sep), comma_mode)
        if not heads:
            raise ParseError("empty head list", item, len(left) + len(sep))
        return body + heads, [(body, h) for h in heads]
    if "=" in item:
        left, sep, right = item.partition("=")
        if "=" in right:
            raise ParseError("more than one '='", item,
                             len(left) + 1 + right.index("="))
        xs = _tokenize_side(left, item, 0, comma_mode)
        ys = _tokenize_side(right, item, len(left) + 1, comma_mode)
        if not xs and not ys:
            raise ParseError("no variable on either side of '='", item,
                             len(left))
        pairs = [(xs, y) for y in ys if y not in xs]
        pairs += [(ys, x) for x in xs if x not in ys]
        return xs + ys, pairs
    raise ParseError("expected '->' or '='", item, len(item))
