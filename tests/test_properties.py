"""Law-level property tests over hypothesis-generated terms."""

import pickle
import random

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from termdepth import (
    App,
    GenConfig,
    Hypersubstitution,
    Signature,
    Var,
    apply_hyp,
    arity_bound,
    b_of,
    compose_hyp,
    depth,
    depth_report,
    depth_wrt,
    gen_full_hyp,
    gen_full_term,
    gen_hyp,
    gen_term,
    length,
    parse_term,
    postorder,
    predict_depth_general,
    render_hyp,
    render_term,
    superpose,
    variables,
    yield_word,
)
from termdepth.terms import _order, _run, _table, _variable_depths
from termdepth.verify import _term_candidates

import oracles

SIG = Signature({"f1": 2, "f2": 3})
REPLAY_SIGS = (Signature({"f": 2}), SIG, Signature({"g1": 1, "g2": 2, "g4": 4}))
TWIN_SIG = Signature({"f1": 2, "f2": 3, "g": 2})

variables_st = st.builds(Var, st.integers(min_value=1, max_value=3))
terms = st.recursive(
    variables_st,
    lambda sub: st.one_of(
        st.builds(lambda a, b: App("f1", (a, b)), sub, sub),
        st.builds(lambda a, b, c: App("f2", (a, b, c)), sub, sub, sub),
    ),
    max_leaves=25,
)
images = {
    "f1": st.recursive(
        st.builds(Var, st.integers(min_value=1, max_value=2)),
        lambda sub: st.builds(lambda a, b: App("f1", (a, b)), sub, sub),
        max_leaves=8,
    ),
    "f2": st.recursive(
        st.builds(Var, st.integers(min_value=1, max_value=3)),
        lambda sub: st.builds(lambda a, b, c: App("f2", (a, b, c)), sub, sub, sub),
        max_leaves=8,
    ),
}


@st.composite
def shared_dags(draw, sig=SIG, max_apps=12):
    """A node of a random DAG over ``sig``: a few Var objects (equal indices
    may be distinct objects), then up to ``max_apps`` applications whose
    arguments are any earlier nodes, repeats allowed.  Any node may be the
    root, a bare Var included."""
    indices = st.integers(min_value=1, max_value=3)
    nodes = [Var(draw(indices)) for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    for _ in range(draw(st.integers(0, max_apps))):
        symbol = draw(st.sampled_from(sorted(sig.symbols)))
        places = st.integers(min_value=0, max_value=len(nodes) - 1)
        arity = sig.symbols[symbol]
        args = draw(st.lists(places, min_size=arity, max_size=arity))
        nodes.append(App(symbol, [nodes[k] for k in args]))
    return nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]


hyps = st.builds(
    lambda i1, i2: Hypersubstitution(SIG, {"f1": i1, "f2": i2}), images["f1"], images["f2"]
)


@given(terms)
def test_depth_is_max_of_per_variable_depths(t):
    report = depth_report(t, max(3, arity_bound(t)))
    assert report.depth == max(
        [report.per_variable[l] for l in report.variables] or [0]
    )


@given(terms, st.integers(min_value=1, max_value=4))
def test_depth_wrt_zero_iff_absent_or_variable(t, l):
    value = depth_wrt(t, l)
    assert (value == 0) == (l not in variables(t) or isinstance(t, Var))
    assert value <= depth(t)


@given(terms)
def test_yield_length_vars_consistency(t):
    word = yield_word(t)
    assert length(t) == len(word)
    assert variables(t) == set(word)


@given(terms)
def test_round_trip(t):
    assert parse_term(render_term(t), SIG) == t


@given(terms)
def test_identity_superposition(t):
    n = max(3, arity_bound(t))
    assert superpose(t, [Var(i) for i in range(1, n + 1)]) == t


@settings(max_examples=60)
@given(terms, terms, terms, terms)
def test_composition_depth_formula(s, t1, t2, t3):
    ts = [t1, t2, t3]
    assert predict_depth_general(s, ts) == depth(superpose(s, ts))


@settings(max_examples=60)
@given(hyps, terms, terms, terms, terms)
def test_hyp_extension_commutes_with_superposition(h, s, t1, t2, t3):
    ts = [t1, t2, t3]
    lhs = apply_hyp(h, superpose(s, ts))
    rhs = superpose(apply_hyp(h, s), [apply_hyp(h, t) for t in ts])
    assert lhs == rhs


@settings(max_examples=60)
@given(hyps, terms)
def test_rewritten_variable_set_shrinks(h, t):
    assert variables(apply_hyp(h, t)) <= variables(t)


@settings(max_examples=60)
@given(terms, terms, terms, terms)
def test_composition_variable_set(s, t1, t2, t3):
    ts = [t1, t2, t3]
    composed = superpose(s, ts)
    expected = set()
    for j in variables(s):
        expected |= variables(ts[j - 1])
    assert variables(composed) == expected


small_terms = st.recursive(
    variables_st,
    lambda sub: st.one_of(
        st.builds(lambda a, b: App("f1", (a, b)), sub, sub),
        st.builds(lambda a, b, c: App("f2", (a, b, c)), sub, sub, sub),
    ),
    max_leaves=6,
)


def _facts_match_oracles(t) -> bool:
    bound = arity_bound(t)
    report = depth_report(t, bound)
    return (
        depth(t) == oracles.depth_rec(t)
        and bound == max(oracles.vars_rec(t))
        and dict(report.per_variable)
        == {l: oracles.depth_wrt_rec(t, l) for l in range(1, bound + 1)}
    )


@settings(max_examples=60)
@given(terms, terms, terms, terms)
def test_composed_term_facts_match_oracles(s, t1, t2, t3):
    assert _facts_match_oracles(superpose(s, [t1, t2, t3]))


@settings(max_examples=60)
@given(hyps, small_terms)
def test_rewritten_term_facts_match_oracles(h, t):
    # small inputs: the oracles walk the unfolded tree, which apply_hyp can
    # make exponentially larger than its shared DAG
    assert _facts_match_oracles(apply_hyp(h, t))


@settings(max_examples=60)
@given(hyps, hyps, small_terms)
def test_b_of_matches_oracle_on_shared_dags(h, h2, t):
    # apply_hyp plugs one rewritten child in wherever an image repeats its
    # variable, so b_of sees a DAG; the oracle walks the unfolded tree
    shared = apply_hyp(h2, t)
    assert b_of(h, shared) == oracles.b_of_rec(h, shared)


def _image_over(arity):
    # Leaves come from x1..x_top for a drawn top <= arity, so some images
    # delete variables; a bare leaf is a projection.
    return st.integers(min_value=1, max_value=arity).flatmap(
        lambda top: st.recursive(
            st.builds(Var, st.integers(min_value=1, max_value=top)),
            lambda sub: st.one_of(
                st.builds(lambda a, b: App("f1", (a, b)), sub, sub),
                st.builds(lambda a, b, c: App("f2", (a, b, c)), sub, sub, sub),
            ),
            max_leaves=5,
        )
    )


varied_hyps = st.builds(
    lambda i1, i2: Hypersubstitution(SIG, {"f1": i1, "f2": i2}), _image_over(2), _image_over(3)
)
# a composite's images are rewritten terms, so they share subterms
rewriting_hyps = st.one_of(varied_hyps, st.builds(compose_hyp, varied_hyps, varied_hyps))


def _leaf_positions(t, path=()):
    """(path of argument offsets, leaf object) per leaf, in yield order."""
    if isinstance(t, Var):
        return [(path, t)]
    out = []
    for k, a in enumerate(t.args):
        out.extend(_leaf_positions(a, path + (k,)))
    return out


def _at(t, path):
    for k in path:
        t = t.args[k]
    return t


@settings(max_examples=100)
@given(rewriting_hyps, terms)
def test_apply_hyp_matches_oracle_and_plugs_in_one_object_per_variable(h, t):
    result = apply_hyp(h, t)
    # the oracle unfolds the result, which can be exponentially larger
    assume(length(result) <= 2000)
    assert result == oracles.apply_hyp_rec(h, t)
    # the variables are t's own objects, and below the root image every
    # x_j position holds the same object: the rewritten t_j
    own = {id(v) for _, v in _leaf_positions(t)}
    assert all(id(v) in own for _, v in _leaf_positions(result))
    if isinstance(t, App):
        plugged = {}
        for path, v in _leaf_positions(h.image(t.symbol)):
            plugged.setdefault(v.index, []).append(_at(result, path))
        for j, objects in plugged.items():
            assert all(o is objects[0] for o in objects)
            assert objects[0] == oracles.apply_hyp_rec(h, t.args[j - 1])


# g and f1 share an arity, so only the symbol check tells them apart
@given(shared_dags(TWIN_SIG), shared_dags(TWIN_SIG))
def test_equality_and_hash_agree_with_rendering_on_shared_dags(a, b):
    assert (a == b) == (render_term(a) == render_term(b))
    if a == b:
        assert hash(a) == hash(b)
    assert arity_bound(a) == max(oracles.vars_rec(a))


@given(shared_dags(TWIN_SIG))
def test_depth_report_defaults_to_the_arity_bound_on_shared_dags(t):
    assert depth_report(t) == depth_report(t, arity_bound(t))


@given(shared_dags())
def test_postorder_keeps_the_reference_node_order(t):
    assert [id(n) for n in postorder(t)] == [id(n) for n in oracles.postorder_reference(t)]


@given(shared_dags())
def test_kept_listing_matches_a_fresh_walk_on_shared_dags(t):
    # Every node is measured, so inner roots keep listings too; the root's
    # kept listing is the reference order, and its node table is that of a
    # fresh walk over an unmeasured copy of the same structure.
    for node in oracles.postorder_reference(t):
        _order(node)
    expected = [id(n) for n in oracles.postorder_reference(t)]
    assert [id(n) for n in _order(t)] == [id(n) for n in _order(t)] == expected
    assert _table(_order(pickle.loads(pickle.dumps(t)))) == _table(_order(t))


@given(shared_dags())
def test_pickle_keeps_the_term_and_its_sharing(t):
    loaded = pickle.loads(pickle.dumps(t))
    assert loaded == t and hash(loaded) == hash(t)
    # equal node tables: the same distinct nodes, each with the same arguments
    assert loaded.__reduce__() == t.__reduce__()


def _candidates_reference(t):
    """Hoisted children, then each application position in preorder
    collapsed to the least variable of its subtree, over the unfolded tree."""
    if isinstance(t, Var):
        return []
    out = list(t.args)

    def visit(node, plug):
        # plug(r) rebuilds the whole term with r at this position
        if isinstance(node, Var):
            return
        out.append(plug(Var(min(oracles.vars_rec(node)))))
        for i, child in enumerate(node.args):
            visit(child, lambda r, node=node, i=i, plug=plug: plug(
                App(node.symbol, node.args[:i] + (r,) + node.args[i + 1:])))

    visit(t, lambda r: r)
    return out


@given(terms)
def test_shrink_candidates_keep_the_reference_order(t):
    got = list(_term_candidates(t))
    want = _candidates_reference(t)
    assert [render_term(c) for c in got] == [render_term(c) for c in want]


# renders of shared DAGs can be exponential, so compare structurally
@given(shared_dags())
def test_shrink_candidates_are_one_per_distinct_node(t):
    assert list(_term_candidates(t)) == oracles.candidates_reference(t)


# 1-9 symbols and pool entries cover every bit_length up to 4 and the
# one-element pool, whose draw repeats getrandbits(1) until it reads 0;
# arities up to 4 cover every shuffle width whose bit_length changes.
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=9),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=9),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_generators_draw_as_the_choice_based_reference(arities, pool, max_depth, seed):
    sig = Signature({f"f{k}": a for k, a in enumerate(arities, 1)})
    cfg = GenConfig(max_depth=max_depth, var_bound=len(pool))
    full_depth = max(1, max_depth)
    pairs = [
        (lambda r: gen_term(cfg, sig, r), lambda r: oracles.gen_term_reference(cfg, sig, r)),
        (
            lambda r: gen_term(cfg, sig, r, var_pool=pool),
            lambda r: oracles.gen_term_reference(cfg, sig, r, var_pool=pool),
        ),
        (
            lambda r: gen_full_term(cfg, sig, r, depth=full_depth),
            lambda r: oracles.gen_full_term_reference(cfg, sig, r, depth=full_depth),
        ),
        (lambda r: gen_full_hyp(cfg, sig, r), lambda r: oracles.gen_full_hyp_reference(cfg, sig, r)),
    ]
    for generate, reference in pairs:
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got, want = generate(got_rng), reference(want_rng)
        render = render_hyp if isinstance(want, Hypersubstitution) else render_term
        assert render(got) == render(want)
        assert got_rng.getstate() == want_rng.getstate()


@given(st.sampled_from(REPLAY_SIGS), st.integers(min_value=1, max_value=6), st.integers(0, 2**32))
def test_generated_and_parsed_terms_hold_one_var_per_index(sig, max_depth, seed):
    cfg = GenConfig(max_depth=max_depth)
    rng = random.Random(seed)
    built = [gen_term(cfg, sig, rng), gen_full_term(cfg, sig, rng)]
    for h in (gen_full_hyp(cfg, sig, rng), gen_hyp(cfg, sig, rng)):
        built.extend(h.assignment.values())
    built += [parse_term(render_term(t), sig) for t in built]
    for t in built + [c for t in built for c in _term_candidates(t)]:
        # _order lists each distinct object once
        leaves = [node.index for node in _order(t) if type(node) is Var]
        assert sorted(leaves) == sorted(variables(t))


@given(st.sampled_from(REPLAY_SIGS), st.integers(min_value=1, max_value=6), st.integers(0, 2**32))
def test_image_views_give_the_depths_and_rebuild_the_image(sig, max_depth, seed):
    cfg = GenConfig(max_depth=max_depth, projection_rate=0.2, deletion_bias=0.3)
    h = gen_hyp(cfg, sig, random.Random(seed))
    for name, arity in sig.symbols.items():
        image = h.assignment[name]
        assert _variable_depths(_order(image)) == {p: depth_wrt(image, p) for p in variables(image)}
        assert _run(_table(_order(image)), [Var(p) for p in range(1, arity + 1)]) == image
