"""Chord algebras: differentials, augmentations, morphisms, linearization."""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordbars import (INF, QQ, Augmentation, Chord, ChordDGA, barcode_of,
                       birth_morphism,
                       check_augmentation, find_augmentations,
                       handle_slide_morphism, partial_linearization,
                       random_complex, random_two_component_dga,
                       stabilized_unknot_shape, standard_unknot_shape,
                       sub_dga, two_cluster_complex, two_copy_template,
                       validate_dga)
from chordbars.cli import main
from chordbars.errors import (ActionIncrease, AugmentationInvalid,
                              DegreeMismatch, DuplicateId, ForeignGenerator,
                              MixedOutputViolation, NotChainMap,
                              NotSquareZero, OrderingViolated,
                              SearchBudgetExceeded, ValidationError,
                              WindowTooWide)
from chordbars.fields import FP
from chordbars.schemas import dumps, serialize_dga

from support import bars_as_tuples, linearized_rows_oracle

F2 = FP(2)
F5 = FP(5)
q = Fraction


def test_chord_degrees_are_integers():
    assert Chord("c", 1, -2).degree == -2
    for bad in (1.5, "z", "1", True, None):
        with pytest.raises(ValidationError):
            Chord("c", 1, bad)


def test_list_boundaries_sum_repeated_words():
    # the (coeff, word) list form adds repeated words and drops a sum of zero
    chords = [Chord("a", 1, 0), Chord("b", 2, 0), Chord("c", 3, 1)]
    D = ChordDGA(F5, chords, {"c": [(2, ["a"]), (1, ["b"]), (3, ["a"]),
                                    (4, ["b"])]})
    assert "c" not in D.differential
    D = ChordDGA(F5, chords, {"c": [(2, ["a"]), (3, ["b"]), (2, ["a"])]})
    assert D.diff_of("c") == {("a",): 4, ("b",): 3}


def test_koszul_sign_in_leibniz_rule():
    D = ChordDGA(QQ, [Chord("u", 1, 0), Chord("v", 2, 0),
                      Chord("x", 4, 1), Chord("y", 5, 1)],
                 {"x": {("u",): 1}, "y": {("v",): 1}})
    got = D.diff_word(("x", "y"))
    assert got == {("u", "y"): 1, ("x", "v"): -1}
    assert validate_dga(D).ok


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_leibniz_property(data):
    D = ChordDGA(F5, [Chord("u", 1, 0), Chord("v", 2, 0),
                      Chord("x", 4, 1), Chord("y", 5, 1),
                      Chord("z", 7, 2)],
                 {"x": {("u",): 1, ("v",): 3},
                  "y": {("v",): 1},
                  "z": {("x", "u"): 2, ("y",): 4}})
    labels = ["u", "v", "x", "y", "z"]
    w1 = tuple(data.draw(st.lists(st.sampled_from(labels), max_size=3)))
    w2 = tuple(data.draw(st.lists(st.sampled_from(labels), max_size=3)))
    lhs = D.diff_word(w1 + w2)
    sign = -1 if D.word_degree(w1) % 2 else 1
    # d(w1)·w2 + (-1)^|w1| w1·d(w2)
    rhs = {w + w2: c for w, c in D.diff_word(w1).items()}
    F5.add_scaled(rhs, {w1 + w: c for w, c in D.diff_word(w2).items()}, sign)
    assert lhs == rhs


def test_linearization_direct_row():
    D1 = ChordDGA(QQ, [Chord("m1", 1, 0, (0, 1)), Chord("m2", 2, 1, (0, 1))],
                  {"m2": {("m1",): 1}})
    cx = partial_linearization(D1, Augmentation(QQ), (q(1, 2), 3))
    assert bars_as_tuples(barcode_of(cx)) == [(1, 2, 0)]


def test_linearization_through_augmented_letter():
    D2 = ChordDGA(QQ, [Chord("p", 1, 0, (0, 0)),
                       Chord("m1", 1, 0, (0, 1)),
                       Chord("m2", q(5, 2), 1, (0, 1))],
                 {"m2": {("p", "m1"): 1}})
    eps1 = Augmentation(QQ, {"p": 1})
    cx = partial_linearization(D2, eps1, (q(1, 2), 3))
    assert bars_as_tuples(barcode_of(cx)) == [(1, q(5, 2), 0)]
    # the zero augmentation keeps the rows empty: two infinite bars
    cx0 = partial_linearization(D2, Augmentation(QQ), (q(1, 2), 3))
    assert bars_as_tuples(barcode_of(cx0)) == [(1, INF, 0), (q(5, 2), INF, 1)]
    # a higher window bottom quotients the target away
    cxq = partial_linearization(D2, eps1, (q(3, 2), 3))
    assert bars_as_tuples(barcode_of(cxq)) == [(q(5, 2), INF, 1)]


def test_window_width_gate():
    D2 = ChordDGA(QQ, [Chord("p", 1, 0, (0, 0)),
                       Chord("m1", 1, 0, (0, 1)),
                       Chord("m2", q(5, 2), 1, (0, 1))],
                 {"m2": {("p", "m1"): 1}})
    eps1 = Augmentation(QQ, {"p": 1})
    with pytest.raises(WindowTooWide) as info:
        partial_linearization(D2, eps1, (0, 4), l=2)
    assert "window width 4 exceeds the augmentation reach 2" in str(info.value)
    with pytest.raises(WindowTooWide):
        partial_linearization(D2, eps1, (0, INF), l=7)


def test_augmentation_search():
    stab = stabilized_unknot_shape(F5, 1, 2, 4)
    assert validate_dga(stab).ok
    assert find_augmentations(stab) == []
    small = sub_dga(stab, 1)
    assert small.chords == []
    assert find_augmentations(small) == [Augmentation(F5)]
    mid = sub_dga(stab, q(3, 2))
    assert [c.label for c in mid.chords] == ["c1"]
    assert find_augmentations(mid) == []
    unk = standard_unknot_shape(F2)
    assert find_augmentations(unk) == [Augmentation(F2)]


def test_augmentation_search_budget_and_rationals():
    wide = ChordDGA(F5, [Chord("p%d" % i, i + 1, 0) for i in range(6)], {})
    with pytest.raises(SearchBudgetExceeded) as info:
        find_augmentations(wide, budget=3)
    assert str(info.value) == "15625 assignments exceed the budget of 3"
    assert len(find_augmentations(wide, budget=20000)) == 5 ** 6
    with pytest.raises(ValidationError):
        find_augmentations(stabilized_unknot_shape(QQ))
    assert find_augmentations(stabilized_unknot_shape(QQ),
                              candidates=[0, 1]) == []


def _raw_values(epss):
    """Each augmentation's values with their raw types, in list order."""
    return [sorted((label, type(v).__name__, v) for label, v in e.values.items())
            for e in epss]


def _assert_search_is_product_filter(D, candidates):
    """find_augmentations equals the brute-force filter of the product."""
    field = D.field
    domain = [c.label for c in D.pure_chords() if c.degree == 0]
    values = (list(field.elements()) if candidates is None
              else [field.coerce(v) for v in candidates])
    want = [eps for eps in (Augmentation(field, dict(zip(domain, combo)))
                            for combo in itertools.product(values,
                                                           repeat=len(domain)))
            if check_augmentation(D, eps).ok]
    got = find_augmentations(D, candidates=candidates, budget=10 ** 6)
    assert got == want
    assert _raw_values(got) == _raw_values(want)
    return got


def _search_dga(field, n_domain, rows):
    """Domain p0..p{n-1}; letters outside it: the mixed degree-0 chord m and
    the pure chords z (degree 1) and y (degree -1); each row is the boundary
    of one degree-1 pure chord, none of whose letters has a boundary."""
    chords = [Chord("p%d" % i, i + 1, 0) for i in range(n_domain)]
    chords += [Chord("m", 1, 0, (0, 1)), Chord("z", 2, 1), Chord("y", 3, -1)]
    chords += [Chord("c%d" % j, 100 + j, 1) for j in range(len(rows))]
    return ChordDGA(field, chords,
                    {"c%d" % j: row for j, row in enumerate(rows)})


@st.composite
def _search_cases(draw):
    field = draw(st.sampled_from([F2, FP(3), QQ]))
    n_domain = draw(st.integers(0, 4))
    tokens = [("p%d" % i,) for i in range(n_domain)]
    tokens += [("m",), ("z", "y"), ("y", "z")]
    word = st.lists(st.sampled_from(tokens), max_size=3).map(
        lambda ts: tuple(x for t in ts for x in t))
    coeffs = [1, -1, 2, 3] + ([Fraction(1, 2)] if field is QQ else [])
    rows = draw(st.lists(st.dictionaries(word, st.sampled_from(coeffs),
                                         min_size=1, max_size=4),
                         max_size=3))
    values = [0, 1, -1, 2, "1", "2/2", "0"]
    candidates = draw(st.lists(st.sampled_from(values), max_size=4))
    if field.char and draw(st.booleans()):
        candidates = None
    return _search_dga(field, n_domain, rows), candidates


@given(_search_cases())
@settings(max_examples=200, deadline=None)
def test_augmentation_search_matches_product_filter(case):
    _assert_search_is_product_filter(*case)


@pytest.mark.parametrize("field, n_domain, rows, candidates, count", [
    # duplicates, equal after coercion, and 0: every one of them is tried
    (QQ, 2, [{("p0", "p1"): 1, ("p1",): -1}], [1, "1", "2/2", 0], 13),
    (FP(3), 3, [{("p2", "p0"): 1, (): -1}], [1, 4, 2, "2/2"], 40),
    # a constant term, and words through letters outside the domain
    (F2, 2, [{(): 1, ("p1",): 1, ("m", "p0"): 1, ("z", "y"): 1}], None, 2),
    (QQ, 1, [{("p0", "z", "y"): 1}, {("y", "z"): 1}], [0, 1, -1], 3),
    # an unsatisfiable constant equation, with and without a domain
    (FP(3), 2, [{(): 2}], None, 0),
    (QQ, 0, [{(): 1, ("m",): 1}], [0, 1], 0),
    # an empty domain: the zero augmentation alone
    (F2, 0, [{("m", "z", "y"): 1}], None, 1),
    (QQ, 0, [], [], 1),
    # an empty candidate list over a nonempty domain
    (QQ, 2, [], [], 0),
])
def test_augmentation_search_edge_cases(field, n_domain, rows, candidates,
                                        count):
    D = _search_dga(field, n_domain, rows)
    assert len(_assert_search_is_product_filter(D, candidates)) == count


def test_augmentation_search_deep_domain():
    # one candidate passes the budget at any depth (1**n = 1)
    n = 3000
    chords = [Chord("p%d" % i, i + 1, 0) for i in range(n)]
    D = ChordDGA(F5, chords + [Chord("c", 2 * n, 1)],
                 {"c": {("p0", "p%d" % (n - 1)): 1, ("p1",): -1}})
    assert find_augmentations(D, candidates=[1]) == [
        Augmentation(F5, {c.label: 1 for c in chords})]


def test_augmentation_search_leaves_no_cycles():
    # reference cycles would leave each search's lists to the collector
    D = _search_dga(QQ, 4, [{("p0", "p3"): 1, ("p2",): -1},
                            {("p1", "p1"): 1, ("p0",): -1, ("m",): 1}])
    D.require_valid()
    gc.collect()
    gc.disable()
    try:
        found = find_augmentations(D, candidates=[0, 1, -1, 2])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(found) == 12


def test_linearization_names_letters_beyond_the_reach():
    D = ChordDGA(QQ, [Chord("p", 5, 0), Chord("w", 1, 1), Chord("v", 7, 1),
                      Chord("m1", 1, 0, (0, 1)), Chord("m2", 2, 1, (0, 1))],
                 {"m2": {("m1",): 1}})
    with pytest.raises(AugmentationInvalid) as info:
        partial_linearization(D, Augmentation(QQ, {"p": 1}), (0, 2), l=3)
    assert str(info.value) == ("nonzero on 'p' of length 5, not below the "
                               "augmentation reach 3")
    # labels that are not degree-0 chords of D keep the graded message
    for label in ("w", "v", "zz"):
        with pytest.raises(AugmentationInvalid) as info:
            partial_linearization(D, Augmentation(QQ, {label: 1}), (0, 2),
                                  l=3)
        assert str(info.value) == ("nonzero on %r which is not a degree-0 "
                                   "chord (graded on None)" % label)


def test_linearization_names_the_boundary_the_augmentation_misses():
    D = ChordDGA(QQ, [Chord("b", 1, 0), Chord("a", 2, 1),
                      Chord("m", 1, 0, (0, 1))], {"a": {("b",): 2}})
    with pytest.raises(AugmentationInvalid) as info:
        partial_linearization(D, Augmentation(QQ, {"b": 1}), (0, 2))
    assert str(info.value) == "eps(d(a)) = 2 (kills-boundaries on 'a')"


def test_linearization_checks_boundaries_below_the_reach_only():
    # eps(d(a)) = 1, but a is beyond the reach 3 and is never linearized
    D = ChordDGA(QQ, [Chord("b", 1, 0), Chord("a", 5, 1),
                      Chord("m1", 1, 0, (0, 1)),
                      Chord("m2", q(5, 2), 1, (0, 1))],
                 {"a": {("b",): 1}, "m2": {("b", "m1"): 1}})
    eps = Augmentation(QQ, {"b": 1})
    cx = partial_linearization(D, eps, (0, 3), l=3)
    assert bars_as_tuples(barcode_of(cx)) == [(1, q(5, 2), 0)]
    with pytest.raises(AugmentationInvalid) as info:
        partial_linearization(D, eps, (0, 3))
    assert str(info.value) == "eps(d(a)) = 1 (kills-boundaries on 'a')"


def test_augmentation_graded_rule():
    D3 = ChordDGA(QQ, [Chord("w", 1, 1, (0, 0)), Chord("m", 2, 0, (0, 1))], {})
    with pytest.raises(AugmentationInvalid):
        partial_linearization(D3, Augmentation(QQ, {"w": 1}), (0, 3))
    report = check_augmentation(D3, Augmentation(QQ, {"w": 1}))
    assert not report.ok


_SLIDE_CHORDS = [Chord("x", 1, 1), Chord("b", 2, 0),
                 Chord("a", q(5, 2), 1), Chord("y", 3, 1), Chord("c", 4, 2)]


def _slide_dga(extra_c_row=()):
    row_c = {("a",): 1, ("y",): -1}
    row_c.update(dict(extra_c_row))
    return ChordDGA(QQ, _SLIDE_CHORDS,
                    {"y": {("b",): 1}, "a": {("b",): 1}, "c": row_c})


def test_handle_slide_morphism():
    Dm = _slide_dga()
    # sliding "a" over the closed word ("x",) leaves a's own row alone but
    # every row that hits "a" (here c's) picks up the word
    Dp = _slide_dga([(("x",), 1)])
    phi = handle_slide_morphism(Dm, Dp, "a", ("x",), unit=1)
    assert phi.images["a"] == {("a",): 1, ("x",): 1}
    assert phi.chain_map_defect() is None


def test_handle_slide_rejects_non_chain_map():
    Dm = _slide_dga()
    with pytest.raises(NotChainMap):
        handle_slide_morphism(Dm, _slide_dga(), "a", ("x",), unit=1)


def test_handle_slide_length_precondition():
    Dm = _slide_dga()
    Dp = _slide_dga()
    with pytest.raises(ValidationError):
        handle_slide_morphism(Dm, Dp, "x", ("b",))


def test_slide_composition_is_chain_map():
    Dm = _slide_dga()
    Dmid = _slide_dga([(("x", "b"), 1)])
    phi1 = handle_slide_morphism(Dm, Dmid, "c", ("x", "y"), unit=1)
    Dp2 = _slide_dga([(("x", "b"), 1), (("x",), 1)])
    phi2 = handle_slide_morphism(Dmid, Dp2, "a", ("x",), unit=1)
    comp = phi2.compose(phi1)
    assert comp.chain_map_defect() is None
    assert comp.images["c"] == {("c",): 1, ("x", "y"): 1}
    assert comp.images["a"] == {("a",): 1, ("x",): 1}


_BIRTH_CHORDS = [Chord("x", 1, 0), Chord("b", 2, 0),
                 Chord("a", q(5, 2), 1), Chord("c", 4, 1)]


def test_birth_morphism():
    DpB = ChordDGA(QQ, _BIRTH_CHORDS, {"a": {("b",): 1, ("x",): 1},
                                       "c": {("b",): 1, ("x",): -1}})
    DmB = ChordDGA(QQ, _BIRTH_CHORDS, {"a": {("b",): 1},
                                       "c": {("b",): 2, ("x",): -2}})
    phi = birth_morphism(DmB, DpB, "a", "b", ordering=["c"])
    assert phi.images["b"] == {("b",): 1, ("x",): 1}
    assert phi.images["c"] == {("c",): 1, ("a",): 1}
    assert phi.chain_map_defect() is None
    with pytest.raises(OrderingViolated):
        birth_morphism(DmB, DpB, "a", "b", ordering=[])


def test_birth_morphism_isolation():
    chords = _BIRTH_CHORDS + [Chord("z", q(9, 4), 0)]
    Dp = ChordDGA(QQ, chords, {"a": {("b",): 1}})
    Dm = ChordDGA(QQ, chords, {"a": {("b",): 1}})
    with pytest.raises(OrderingViolated):
        birth_morphism(Dm, Dp, "a", "b", ordering=["c", "z"])


def test_birth_morphism_koszul_correction():
    chords = [Chord("x", q(1, 2), 1), Chord("b", 2, 0),
              Chord("a", q(5, 2), 1), Chord("a1", 4, 2)]
    DpK = ChordDGA(QQ, chords, {"a": {("b",): 1}, "a1": {("x", "b"): 1}})
    DmK = ChordDGA(QQ, chords, {"a": {("b",): 1}})
    phi = birth_morphism(DmK, DpK, "a", "b", ordering=["a1"])
    assert phi.images["a1"] == {("a1",): 1, ("x", "a"): 1}
    assert phi.chain_map_defect() is None


def _birth(dm_rows, dp_rows, a, b, ordering, extra=()):
    chords = _BIRTH_CHORDS + list(extra)
    return lambda: birth_morphism(ChordDGA(QQ, chords, dm_rows),
                                  ChordDGA(QQ, chords, dp_rows), a, b, ordering)


_PAIR_ROWS = {"a": {("b",): 1}}
_BACKWARDS = ChordDGA(F2, [Chord("n", 1, 0, (1, 0)), Chord("m", 3, 1, (0, 1))],
                      {"m": {("n",): 1}})
_DGA_REFUSALS = [
    (lambda: Chord("c", 0, 0), ValidationError,
     "chord 'c' needs positive length"),
    (lambda: Chord("c", -1, 0), ValidationError,
     "chord 'c' needs positive length"),
    (lambda: ChordDGA(F2, [Chord("a", 1, 0), Chord("a", 2, 0)]), DuplicateId,
     "chord label 'a' repeated"),
    (lambda: _BACKWARDS.chord("z"), ForeignGenerator, "no chord labelled 'z'"),
    (lambda: handle_slide_morphism(_BACKWARDS, ChordDGA(F2, _SLIDE_CHORDS),
                                   "m", ()), ValidationError,
     "chord sets are not in bijection by label"),
    (lambda: handle_slide_morphism(_BACKWARDS, _BACKWARDS, "z", ()),
     ForeignGenerator, "no chord labelled 'z'"),
    (_birth(_PAIR_ROWS, _PAIR_ROWS, "x", "b", []), OrderingViolated,
     "the pair must satisfy l(b) < l(x)"),
    (_birth({}, _PAIR_ROWS, "a", "b", ["c"]), ValidationError,
     "the artificial pair needs d(a) = b in the source"),
    (_birth(_PAIR_ROWS, _PAIR_ROWS, "a", "b", ["e", "c"], [Chord("e", 5, 1)]),
     OrderingViolated, "ordering must be ascending in length"),
    # c bounds x on the plus side only, and no correction can supply it
    (_birth(_PAIR_ROWS, {**_PAIR_ROWS, "c": {("x",): 1}}, "a", "b", ["c"]),
     NotChainMap, "birth images do not intertwine the differentials (witness "
     "'c': 0 vs 1·x)"),
    (lambda: partial_linearization(_BACKWARDS, Augmentation(F2), (0, 4)),
     MixedOutputViolation,
     "word n of d(m) has a single mixed letter oriented backwards "
     "(mixed-output on 'm')"),
    (lambda: partial_linearization(ChordDGA(F2, _SLIDE_CHORDS),
                                   Augmentation(F2), (3, 2)),
     ValidationError, "window needs a < b"),
    # each failed law of validate_dga and check_augmentation raises its own
    # class, the message naming the law and the chord
    (lambda: find_augmentations(ChordDGA(
        F2, [Chord("a", 1, 0), Chord("b", 2, 0)], {"b": {("a",): 1}})),
     DegreeMismatch, "word a has degree 0, expected -1 (degree on 'b')"),
    (lambda: ChordDGA(F2, [Chord("a", 2, 0), Chord("b", 1, 1)],
                      {"b": {("a",): 1}}).require_valid(),
     ActionIncrease, "word a has length 2, not below 1 (length on 'b')"),
    (lambda: ChordDGA(F2, [Chord("a", 1, 0), Chord("b", 2, 1),
                           Chord("c", 3, 2)],
                      {"b": {("a",): 1}, "c": {("b",): 1}}).require_valid(),
     NotSquareZero, "d(d(c)) = 1·a (square on 'c')"),
    (lambda: partial_linearization(ChordDGA(F2, [Chord("m", 1, 0, (0, 1))]),
                                   Augmentation(F2, {"m": 1}), (0, 4)),
     AugmentationInvalid,
     "nonzero on mixed chord 'm' (vanishes-on-mixed on None)"),
]


def test_dga_refusals_name_what_they_refuse(tmp_path, capsys):
    # a chord, an algebra, a morphism or a linearization that breaks its
    # preconditions is refused with its own class and the labels at fault
    for make, error, message in _DGA_REFUSALS:
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error and str(info.value) == message
    # the command line reports an empty window on one line and exits 1
    assert main(["fixtures", "--dest", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["linearize", str(tmp_path / "two_copy.dga.json"),
                 str(tmp_path / "two_copy.augmentation.json"),
                 "--window", "3", "2"]) == 1
    assert capsys.readouterr() == ("", "error: window needs a < b\n")


_EXACT = "action values must be exact rationals, got %s"
_FIXTURE_REFUSALS = [
    (lambda: stabilized_unknot_shape(F2, l1=0.1), _EXACT % 0.1),
    (lambda: stabilized_unknot_shape(F2, l1="x"),
     "cannot read action value 'x'"),
    (lambda: two_copy_template(F2, 10.5, [("c", 1, 1)]), _EXACT % 10.5),
    (lambda: two_copy_template(F2, 10, [("c", 0.5, 1)]), _EXACT % 0.5),
    (lambda: two_copy_template(F2, 10, [("c", 1, 1.5)]),
     "degree must be an integer, got 1.5"),
    (lambda: two_copy_template(F2, 10, [("c", 1, "1")]),
     "degree must be an integer, got '1'"),
    (lambda: two_copy_template(F2, 10, [("c", 1, 1)], [("e", "x", -1)]),
     "cannot read action value 'x'"),
    (lambda: two_copy_template(F2, 10, [("c", 1, 1)], [("e", 1, True)]),
     "degree must be an integer, got True"),
    (lambda: two_cluster_complex(random.Random(0), F2, gap=0.5),
     _EXACT % 0.5),
    (lambda: two_cluster_complex(random.Random(0), F2, gap=None),
     "cannot read action value None"),
    (lambda: random_complex(random.Random(0), F2, window=(0, 1.5)),
     _EXACT % 1.5),
    (lambda: random_complex(random.Random(0), F2, window=("x", 16)),
     "cannot read action value 'x'"),
    (lambda: Chord("c", 1, 0, (0.9, 1.2)),
     "chord 'c' has components outside {0, 1}"),
    (lambda: Chord("c", 1, 0, (True, 1)),
     "chord 'c' has components outside {0, 1}"),
    (lambda: Chord("c", 1, 0, ("1", 1)),
     "chord 'c' has components outside {0, 1}"),
    (lambda: Chord("c", 1, 0, (0, 2)),
     "chord 'c' has components outside {0, 1}"),
    (lambda: Chord("c", 1, 0, (0, 1, 1)),
     "chord 'c' needs two ends, got (0, 1, 1)"),
    (lambda: Chord("c", 1, 0, (0,)), "chord 'c' needs two ends, got (0,)"),
    (lambda: Chord("c", 1, 0, 5), "chord 'c' needs two ends, got 5"),
]


@pytest.mark.parametrize("make, message", _FIXTURE_REFUSALS)
def test_fixtures_read_numbers_through_the_shared_readers(make, message):
    # lengths, separations, offsets, gaps and windows are exact actions and
    # degrees are integers, read as everywhere else; a chord has two ends,
    # each 0 or 1
    with pytest.raises(ValidationError) as info:
        make()
    assert type(info.value) is ValidationError and str(info.value) == message


def test_fixtures_read_number_strings_exactly():
    stab = stabilized_unknot_shape(F2, l1="1/3", l2=q(1, 2), l0="4")
    assert [c.length for c in stab.chords] == [q(1, 3), q(1, 2), 4]
    tc = two_copy_template(F2, "21/2", [("c", "1/2", 1)], [("e", "1/8", -1)])
    assert [(c.label, c.length) for c in tc.chords] == [
        ("c@0", q(1, 2)), ("c@1", q(1, 2)), ("q_c", 11), ("p_c", 10),
        ("e", q(85, 8))]
    assert two_cluster_complex(random.Random(0), F2, gap="3").window[1] == INF
    assert random_complex(random.Random(0), F2, window=("1/2", "4")) \
        .window[0] == q(1, 2)


def test_validation_refuses_a_single_backwards_mixed_letter(tmp_path, capsys):
    # the rule partial_linearization relies on is checked by validate_dga,
    # so the command line reports the algebra invalid before linearizing it
    report = validate_dga(_BACKWARDS)
    assert not report.ok
    assert [(e.kind, e.subject, e.detail) for e in report.failures()] == [
        ("mixed-output", "m",
         "word n of d(m) has a single mixed letter oriented backwards")]
    path = tmp_path / "backwards.dga.json"
    path.write_text(dumps(serialize_dga(_BACKWARDS)))
    assert main(["validate", str(path)]) == 1
    assert "mixed-output 'm': FAIL — word n of d(m) has a single mixed " \
        "letter oriented backwards\n" in capsys.readouterr().out


def test_two_copy_template():
    tc = two_copy_template(F2, 10, [("c", 1, 1)], [("e", q(1, 4), -1)],
                           {"e": {("p_c",): 1}})
    assert validate_dga(tc).ok
    assert {c.label for c in tc.chords} == {"c@0", "c@1", "q_c", "p_c", "e"}
    assert tc.chord("q_c").length == 11
    assert tc.chord("p_c").length == 9
    cx = partial_linearization(tc, Augmentation(F2), (9, 12))
    assert sorted(g.action for g in cx.generators) == [9, q(41, 4), 11]


def test_linearization_matches_substitution_oracle():
    rng = random.Random(20260814)
    for i in range(18):
        field = [F2, F5, QQ][i % 3]
        D = random_two_component_dga(rng, field)
        assert validate_dga(D).ok
        if field.char:
            try:
                epss = find_augmentations(D, budget=5000)
            except SearchBudgetExceeded:
                epss = [Augmentation(field)]
        else:
            epss = find_augmentations(D, candidates=[0, 1, -1], budget=5000)
        assert epss
        eps = rng.choice(epss)
        lengths = sorted(c.length for c in D.forward_mixed())
        window = (lengths[0], lengths[-1] + 1)
        _assert_matches_oracle(D, eps, window)
    # M bounds a word with three mixed letters, which has no linear part,
    # next to one-letter terms through the augmented p and on m3 alone
    D = ChordDGA(QQ, [Chord("p", 1, 0), Chord("m1", 1, 0, (0, 1)),
                      Chord("n", 1, 0, (1, 0)), Chord("m2", 1, 0, (0, 1)),
                      Chord("m3", 2, 0, (0, 1)), Chord("M", 5, 1, (0, 1))],
                 {"M": {("m1", "n", "m2"): 1, ("p", "m3"): 3, ("m3",): -1}})
    assert validate_dga(D).ok
    got = _assert_matches_oracle(D, Augmentation(QQ, {"p": 2}), (1, 6))
    assert got == {"M": {"m3": 5}}


def _assert_matches_oracle(D, eps, window):
    cx = partial_linearization(D, eps, window)
    got = {gid: dict(cx.differential_raw(gid))
           for gid in (g.id for g in cx.generators)
           if cx.differential_raw(gid)}
    assert got == linearized_rows_oracle(D, eps, window), D.field.tag
    barcode_of(cx)  # engines agree implicitly via construction checks
    return got


def _rows(report):
    return [(e.kind, e.subject, e.ok, e.detail) for e in report.entries]


def test_sub_dga_inherits_the_report():
    rng = random.Random(20261019)
    for i in range(15):
        field = [F2, F5, QQ][i % 3]
        D = random_two_component_dga(rng, field)
        whole = validate_dga(D)
        assert validate_dga(D) is whole
        for l in sorted({c.length for c in D.chords}) + [INF]:
            sub = sub_dga(D, l)
            fresh = ChordDGA(field, sub.chords, sub.differential)
            got = validate_dga(sub)
            assert _rows(got) == _rows(validate_dga(fresh)), (i, l)
            # inherited, not rebuilt
            assert {id(e) for e in got.entries} <= \
                {id(e) for e in whole.entries}


def test_sub_dga_inherits_failures_on_both_sides_of_the_cut():
    # below 3: x has the wrong degree and y does not drop length;
    # above 3: d(d(z)) = a and d(m) has no mixed letter
    chords = [Chord("y", q(1, 2), 1), Chord("a", 1, 0), Chord("x", 2, 2),
              Chord("w", 2, 1), Chord("m", 4, 1, (0, 1)), Chord("z", 5, 2)]
    rows = {"y": {("a",): 1}, "x": {("a",): 1}, "w": {("a",): 1},
            "m": {("a",): 1}, "z": {("w",): 1}}
    D = ChordDGA(QQ, chords, rows)
    failed = {(e.kind, e.subject) for e in validate_dga(D).failures()}
    assert failed == {("length", "y"), ("degree", "x"), ("square", "z"),
                      ("mixed-output", "m")}
    sub = sub_dga(D, 3)
    fresh = ChordDGA(QQ, chords[:4], {k: rows[k] for k in "yxw"})
    assert _rows(validate_dga(sub)) == _rows(validate_dga(fresh))
    assert {(e.kind, e.subject) for e in validate_dga(sub).failures()} == \
        {("length", "y"), ("degree", "x")}
    # a kept row with a dropped letter is refused before anything is
    # inherited, as it is without a report
    with pytest.raises(ForeignGenerator):
        sub_dga(D, 1)
    with pytest.raises(ForeignGenerator):
        sub_dga(ChordDGA(QQ, chords, rows), 1)
