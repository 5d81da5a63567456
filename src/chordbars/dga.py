"""Differential graded algebras on labelled chords.

Generators are chords carrying a positive rational length, an integer degree
and component endpoints; the algebra is free noncommutative on them.  An
element is a raw sparse chain ``{word: raw}`` (see :mod:`chordbars.fields`),
a word a tuple of chord labels and ``()`` the unit.  The differential is
defined on generators and extended by the Leibniz rule with Koszul signs:
crossing a prefix of total degree d costs (-1)^d (over a characteristic-2
field the sign collapses, no special-casing needed).

Everything downstream — augmentation search, slide/birth morphisms, the
passage to a filtered complex of mixed chords — works with exact field
arithmetic; nothing here ever touches floats.
"""

from fractions import Fraction

from .complexes import INF, FilteredComplex, as_action, as_degree, as_reach
from .errors import (ActionIncrease, AugmentationInvalid, CheckEntry,
                     CheckReport, DegreeMismatch, DuplicateId,
                     ForeignGenerator, MixedOutputViolation, NotChainMap,
                     NotSquareZero, OrderingViolated, SearchBudgetExceeded,
                     ValidationError, WindowTooWide)


class Chord:
    """A generator: ``ends`` is the (start, end) component pair; a chord is
    pure when both ends sit on the same component."""

    __slots__ = ("label", "length", "degree", "ends")

    def __init__(self, label, length, degree, ends=(0, 0)):
        self.label = str(label)
        self.length = as_action(length)
        if not self.length > 0:
            raise ValidationError("chord %r needs positive length" % label)
        self.degree = as_degree(degree)
        try:
            start, end = ends
        except (TypeError, ValueError):
            raise ValidationError("chord %r needs two ends, got %r"
                                  % (label, ends)) from None
        ends = (start, end)
        if not all(type(e) is int and e in (0, 1) for e in ends):
            raise ValidationError("chord %r has components outside {0, 1}" % label)
        self.ends = ends

    @property
    def kind(self):
        return "pure" if self.ends[0] == self.ends[1] else "mixed"

    @property
    def component(self):
        return self.ends[0] if self.ends[0] == self.ends[1] else None

    @property
    def is_forward_mixed(self):
        # the distinguished mixed family: starts on component 0, ends on 1
        return self.ends == (0, 1)

    def __repr__(self):
        return "Chord(%r, l=%s, deg=%d, %d->%d)" % (
            self.label, self.length, self.degree, self.ends[0], self.ends[1])


def _product(field, x, y):
    """The concatenation product of two raw chains."""
    out = {}
    for w1, c1 in x.items():
        field.add_scaled(out, {w1 + w2: c2 for w2, c2 in y.items()}, c1)
    return out


def _format(field, chain):
    """A raw chain as "c·w1*w2 + …" by word length, then word; "1" is the
    unit word and "0" the zero chain."""
    return " + ".join("%s·%s" % (field.format(chain[w]), "*".join(w) or "1")
                      for w in sorted(chain, key=lambda w: (len(w), w))) or "0"


class ChordDGA:
    """Free DGA on chords; the differential is input data, never computed.

    The constructor performs syntactic normalization (unique labels, known
    letters) and is the one place where a boundary is coerced into a raw
    chain, from a ``{word: coeff}`` dict (zero coefficients dropped) or a
    ``[(coeff, word)]`` list (repeated words summed); every method takes
    and returns raw chains.  Semantic laws — square
    zero, degree -1, strict length decrease, the mixed-output rule — are
    checked by :func:`validate_dga`, which reports every violation with a
    witness instead of stopping at the first.
    """

    def __init__(self, field, chords, differential=None):
        self.field = field
        self.chords = []
        self._by_label = {}
        for ch in chords:
            if not isinstance(ch, Chord):
                ch = Chord(*ch)
            if ch.label in self._by_label:
                raise DuplicateId("chord label %r repeated" % ch.label)
            self._by_label[ch.label] = ch
            self.chords.append(ch)
        field = self.field
        self.differential = {}
        for label, value in (differential or {}).items():
            if label not in self._by_label:
                raise ForeignGenerator("differential of unknown chord %r" % label)
            elem = {}
            if isinstance(value, dict):
                for word, coeff in value.items():
                    c = field.coerce(coeff)
                    if c:
                        elem[tuple(word)] = c
            else:  # a list of (coeff, word) pairs
                for coeff, word in value:
                    field.add_scaled(elem, {tuple(word): field.coerce(coeff)},
                                     field.one_raw)
            for word in elem:
                for letter in word:
                    if letter not in self._by_label:
                        raise ForeignGenerator(
                            "word in d(%s) uses unknown chord %r" % (label, letter))
            if elem:
                self.differential[label] = elem
        self._report = None

    # -- lookups -----------------------------------------------------------

    def chord(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise ForeignGenerator("no chord labelled %r" % label) from None

    def has_chord(self, label):
        return label in self._by_label

    def labels(self):
        return [c.label for c in self.chords]

    def pure_chords(self, component=None):
        return [c for c in self.chords if c.kind == "pure"
                and (component is None or c.component == component)]

    def forward_mixed(self):
        return [c for c in self.chords if c.is_forward_mixed]

    def word_length(self, word):
        total = Fraction(0)
        for label in word:
            total += self.chord(label).length
        return total

    def word_degree(self, word):
        return sum(self.chord(label).degree for label in word)

    def element_length(self, chain):
        """Max word length over the support; 0 for scalars (and for 0)."""
        return max(map(self.word_length, chain), default=Fraction(0))

    # -- the differential --------------------------------------------------

    def diff_of(self, label):
        return self.differential.get(label, {})

    def _add_diff_word(self, out, word, coeff):
        """out += coeff·∂(word), the Leibniz expansion with Koszul signs over
        the word's letters, accumulated into raw terms."""
        field = self.field
        prefix_degree = 0
        for i, label in enumerate(word):
            d = self.differential.get(label)
            if d:
                c = coeff if prefix_degree % 2 == 0 else field.neg(coeff)
                field.add_scaled(out, {word[:i] + w + word[i + 1:]: x
                                       for w, x in d.items()}, c)
            prefix_degree += self.chord(label).degree

    def diff_word(self, word):
        out = {}
        self._add_diff_word(out, word, self.field.one_raw)
        return out

    def diff(self, chain):
        out = {}
        for w, c in chain.items():
            self._add_diff_word(out, w, c)
        return out

    def require_valid(self):
        validate_dga(self).raise_first(_EXC)
        return self


# the exception each failed law of validate_dga or check_augmentation raises
_EXC = {"square": NotSquareZero, "degree": DegreeMismatch,
        "length": ActionIncrease, "mixed-output": MixedOutputViolation,
        "graded": AugmentationInvalid,
        "vanishes-on-mixed": AugmentationInvalid,
        "kills-boundaries": AugmentationInvalid}


def validate_dga(D):
    """Semantic checks with witnesses: per generator, every word of its
    boundary must drop degree by one and length strictly; mixed generators
    may only bound through words containing a mixed letter, and a
    forward-mixed one not through a word whose only mixed letter is
    backwards (reported after any word with no mixed letter); and the
    square of the differential must vanish.  The report is built once and
    kept on D; later calls return it."""
    if D._report is not None:
        return D._report
    entries = []
    for c in D.chords:
        elem = D.diff_of(c.label)
        bad_deg = [w for w in elem if D.word_degree(w) != c.degree - 1]
        entries.append(CheckEntry(
            "degree", c.label, None, not bad_deg,
            "" if not bad_deg else
            "word %s has degree %d, expected %d"
            % ("*".join(bad_deg[0]) or "1", D.word_degree(bad_deg[0]),
               c.degree - 1)))
        bad_len = [w for w in elem if not D.word_length(w) < c.length]
        entries.append(CheckEntry(
            "length", c.label, None, not bad_len,
            "" if not bad_len else
            "word %s has length %s, not below %s"
            % ("*".join(bad_len[0]) or "1", D.word_length(bad_len[0]), c.length)))
        if c.kind == "mixed":
            mixed = {w: [x for x in w if D.chord(x).kind == "mixed"]
                     for w in elem}
            bad_mix = [(w, "contains no mixed chord")
                       for w in elem if not mixed[w]]
            if c.is_forward_mixed:
                bad_mix += [(w, "has a single mixed letter oriented backwards")
                            for w, m in mixed.items() if len(m) == 1
                            and not D.chord(m[0]).is_forward_mixed]
            entries.append(CheckEntry(
                "mixed-output", c.label, None, not bad_mix,
                "" if not bad_mix else "word %s of d(%s) %s"
                % ("*".join(bad_mix[0][0]) or "1", c.label, bad_mix[0][1])))
        sq = D.diff(elem)
        entries.append(CheckEntry(
            "square", c.label, None, not sq,
            "" if not sq else "d(d(%s)) = %s" % (c.label, _format(D.field, sq))))
    D._report = CheckReport(entries)
    return D._report


def sub_dga(D, l):
    """Sub-DGA on chords of length strictly below l (l may be INF).

    Strict length decrease of the differential makes the span automatically
    closed, so rows carry over unchanged, and so do a validated D's report
    entries: each reads only its chord's row and the rows of its letters.
    """
    l = as_reach(l)
    if l == INF:
        return D
    keep = [c for c in D.chords if c.length < l]
    labels = {c.label for c in keep}
    diff = {lab: e for lab, e in D.differential.items() if lab in labels}
    sub = ChordDGA(D.field, keep, diff)
    if D._report is not None:
        sub._report = CheckReport(e for e in D._report.entries
                                  if e.subject in labels)
    return sub


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------

class Augmentation:
    """Scalar assignment on chord labels; unassigned labels map to 0."""

    __slots__ = ("field", "values")

    def __init__(self, field, values=None):
        self.field = field
        self.values = {}
        for label, v in (values or {}).items():
            c = field.coerce(v)
            if c:
                self.values[str(label)] = c

    @classmethod
    def _of_raw(cls, field, values):
        """Wrap raw {label: value} pairs that hold no zero, without coercing."""
        e = cls(field)
        e.values = values
        return e

    def value_raw(self, label):
        return self.values.get(label, self.field.zero_raw)

    def of_word(self, word, coeff):
        """coeff times the product of the letters' values."""
        field = self.field
        for label in word:
            coeff = field.mul(coeff, self.value_raw(label))
            if not coeff:
                break
        return coeff

    def of_element(self, chain):
        """Multiplicative extension: the unit maps to 1, letters multiply."""
        total = self.field.zero_raw
        for word, coeff in chain.items():
            total = self.field.add(total, self.of_word(word, coeff))
        return total

    def __eq__(self, other):
        if not isinstance(other, Augmentation):
            return NotImplemented
        return self.field is other.field and self.values == other.values

    def __repr__(self):
        body = ", ".join("%s=%s" % (k, self.field.format(v))
                         for k, v in sorted(self.values.items()))
        return "Augmentation({%s})" % body


def check_augmentation(D, eps):
    """Report on the augmentation laws over D's full chord set."""
    return _augmentation_report(D, eps, D.chords)


def _augmentation_report(D, eps, chords):
    """check_augmentation with the boundary law on ``chords`` only."""
    entries = []
    bad = [lab for lab in eps.values
           if not D.has_chord(lab) or D.chord(lab).degree != 0]
    entries.append(CheckEntry(
        "graded", None, None, not bad,
        "" if not bad else "nonzero on %r which is not a degree-0 chord" % bad[0]))
    badm = [lab for lab in eps.values
            if D.has_chord(lab) and D.chord(lab).kind == "mixed"]
    entries.append(CheckEntry(
        "vanishes-on-mixed", None, None, not badm,
        "" if not badm else "nonzero on mixed chord %r" % badm[0]))
    for c in chords:
        v = eps.of_element(D.diff_of(c.label))
        entries.append(CheckEntry(
            "kills-boundaries", c.label, None, not v,
            "" if not v else
            "eps(d(%s)) = %s" % (c.label, D.field.format(v))))
    return CheckReport(entries)


def _vanish(equations, vals, p):
    """Whether every compiled ε(∂c) is zero under the values in ``vals``
    (p is the characteristic; 0 means Q)."""
    for terms in equations:
        total = 0
        for coeff, ix in terms:
            for i in ix:
                coeff *= vals[i]
            total += coeff
        if total % p if p else total:
            return False
    return True


def find_augmentations(D, candidates=None, budget=100000):
    """Exhaustive augmentation search over the degree-0 pure chords.

    Over a finite field the whole value space is enumerated; over the
    rationals a finite candidate set must be supplied.  ``budget`` caps the
    number of assignments in that product (SearchBudgetExceeded beyond it),
    tested before the search starts.

    Each ∂c is compiled once into (coeff, index-tuple) terms over the domain;
    a word with a letter outside the domain vanishes under every candidate
    and is dropped.  The equation ε(∂c) = 0 is filed under the domain index
    of its last letter, and one with no letter left is decided up front.  A
    depth-first search assigns the domain in order, checks the equations
    filed at depth k as soon as value k is set, and abandons the branch at
    the first nonzero.  Domain order yields the hits in
    ``itertools.product`` order, duplicate candidates included.
    """
    D.require_valid()
    field = D.field
    domain = [c.label for c in D.pure_chords() if c.degree == 0]
    if candidates is None:
        try:
            values = list(field.elements())
        except ValueError:
            raise ValidationError(
                "over an infinite field pass a finite candidate set") from None
    else:
        values = [field.coerce(v) for v in candidates]
    total = len(values) ** len(domain) if domain else 1
    if total > budget:
        raise SearchBudgetExceeded(
            "%d assignments exceed the budget of %d" % (total, budget))
    index = {label: i for i, label in enumerate(domain)}
    filed = [[] for _ in domain]
    constant = []
    for elem in D.differential.values():
        terms = [(coeff, tuple(index[x] for x in word))
                 for word, coeff in elem.items()
                 if all(x in index for x in word)]
        if terms:
            last = max(max(ix, default=-1) for _, ix in terms)
            (filed[last] if last >= 0 else constant).append(terms)
    p = field.char
    if not _vanish(constant, (), p):
        return []
    if not domain:
        return [Augmentation(field)]
    found = []
    vals = [None] * len(domain)
    stack = [iter(values)]
    while stack:
        k = len(stack) - 1
        for v in stack[k]:
            vals[k] = v
            if _vanish(filed[k], vals, p):
                break
        else:
            stack.pop()
            continue
        if k + 1 < len(domain):
            stack.append(iter(values))
        else:
            found.append(Augmentation._of_raw(
                field, {label: v for label, v in zip(domain, vals) if v}))
    return found


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class DGAMorphism:
    """Algebra morphism determined by generator images (source labels map
    to raw chains of the target algebra); applied to words
    multiplicatively."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {}
        for c in source.chords:
            img = images.get(c.label)
            if img is None:
                img = {(c.label,): target.field.one_raw}
            self.images[c.label] = img

    def apply(self, chain):
        field = self.target.field
        out = {}
        for word, coeff in chain.items():
            acc = {(): coeff}
            for label in word:
                acc = _product(field, acc, self.images[label])
            field.add_scaled(out, acc, field.one_raw)
        return out

    def compose(self, inner):
        """self ∘ inner (inner runs first)."""
        if inner.target is not self.source and \
                set(inner.target.labels()) != set(self.source.labels()):
            raise ValidationError("cannot compose: the inner morphism's target "
                                  "chords are not this morphism's source chords")
        images = {lab: self.apply(inner.images[lab]) for lab in inner.images}
        return DGAMorphism(inner.source, self.target, images)

    def chain_map_defect(self):
        """First generator where Φ∘∂ ≠ ∂'∘Φ, as (label, Φ∂c, ∂'Φc), or None
        if a chain map."""
        for c in self.source.chords:
            lhs = self.apply(self.source.diff_of(c.label))
            rhs = self.target.diff(self.images[c.label])
            if lhs != rhs:
                return c.label, lhs, rhs
        return None

    def _require_chain_map(self, what):
        defect = self.chain_map_defect()
        if defect is not None:
            label, lhs, rhs = defect
            field = self.target.field
            raise NotChainMap(
                "%s images do not intertwine the differentials (witness %r: "
                "%s vs %s)" % (what, label, _format(field, lhs),
                               _format(field, rhs)))


def _check_bijection(D_minus, D_plus):
    if set(D_minus.labels()) != set(D_plus.labels()):
        raise ValidationError("chord sets are not in bijection by label")


def _check_length_bound(phi, slack=0):
    """ValidationError unless Φ raises no chord's length by more than slack."""
    for c in phi.source.chords:
        n = phi.target.element_length(phi.images[c.label])
        if n > c.length + slack:
            raise ValidationError("image of %r has length %s, above %s + %s"
                                  % (c.label, n, c.length, slack))


def handle_slide_morphism(D_minus, D_plus, a, word, unit=1):
    """Φ fixes every chord but the one labelled ``a``, which gains unit·word.

    Requires ℓ(a) ≥ total length of the word on both sides, and the result
    must intertwine the two differentials exactly (NotChainMap otherwise —
    that signals inconsistent input data, not a bug here) and map no chord
    to a longer element (ValidationError otherwise).
    """
    _check_bijection(D_minus, D_plus)
    word = tuple(word)
    for D in (D_minus, D_plus):
        if not D.has_chord(a):
            raise ForeignGenerator("no chord labelled %r" % a)
        if not D.chord(a).length >= D.word_length(word):
            raise ValidationError(
                "slide word is longer than the chord it corrects "
                "(%s > %s)" % (D.word_length(word), D.chord(a).length))
    field = D_plus.field
    img = {(a,): field.one_raw}
    field.add_scaled(img, {word: field.one_raw}, field.coerce(unit))
    phi = DGAMorphism(D_minus, D_plus, {a: img})
    phi._require_chain_map("slide")
    _check_length_bound(phi)
    return phi


def _replace_first(word, old, new):
    """The word with its first ``old`` letter swapped for ``new`` (or None)."""
    for i, lab in enumerate(word):
        if lab == old:
            return word[:i] + (new,) + word[i + 1:]
    return None


def birth_morphism(D_minus, D_plus, a_plus, b_plus, ordering):
    """Morphism across a birth: D_minus carries the artificial pair.

    ``D_minus`` must contain the pair (a, b), the chords labelled
    ``a_plus`` and ``b_plus``, with ∂a = b; no other chord may have length
    between ℓ(b) and ℓ(a); ``ordering`` labels the chords longer than a in
    ascending length.  The map is the base correction (b picks up
    ∂a − b on the plus side) composed with one correction per listed chord,
    each substituting the first b-letter of its boundary by a.  No image
    may exceed its chord's length by more than ℓ(a) − ℓ(b) (ValidationError
    otherwise).
    """
    _check_bijection(D_minus, D_plus)
    field = D_plus.field
    la = D_plus.chord(a_plus).length
    lb = D_plus.chord(b_plus).length
    if not lb < la:
        raise OrderingViolated("the pair must satisfy l(%s) < l(%s)"
                               % (b_plus, a_plus))
    if D_minus.diff_of(a_plus) != {(b_plus,): field.one_raw}:
        raise ValidationError(
            "the artificial pair needs d(%s) = %s in the source" %
            (a_plus, b_plus))
    between = [c.label for c in D_plus.chords
               if lb <= c.length <= la and c.label not in (a_plus, b_plus)]
    if between:
        raise OrderingViolated(
            "chord %r has length inside [%s, %s], the pair is not isolated"
            % (between[0], lb, la))
    longer = [c.label for c in D_plus.chords if c.length > la]
    ordering = list(ordering)
    if set(ordering) != set(longer):
        raise OrderingViolated(
            "ordering must list exactly the chords longer than %s" % a_plus)
    lengths = [D_plus.chord(lab).length for lab in ordering]
    if lengths != sorted(lengths):
        raise OrderingViolated("ordering must be ascending in length")

    # base correction: b absorbs (∂⁺a − b), i.e. its image is ∂⁺a
    phi = DGAMorphism(D_minus, D_plus, {b_plus: D_plus.diff_of(a_plus)})
    for lab in ordering:
        img = {(lab,): field.one_raw}
        for w, c in D_plus.diff_of(lab).items():
            w2 = _replace_first(w, b_plus, a_plus)
            if w2 is not None:
                field.add_scaled(img, {w2: c}, field.one_raw)
        g = DGAMorphism(D_plus, D_plus, {lab: img})
        # note: g's source label set equals phi's target's, compose is legal
        phi = g.compose(phi)
    phi._require_chain_map("birth")
    _check_length_bound(phi, la - lb)
    return phi


# ---------------------------------------------------------------------------
# from a two-component DGA to a filtered complex of mixed chords
# ---------------------------------------------------------------------------

def partial_linearization(D, eps, window, l=INF):
    """Filtered complex on forward-mixed chords with length in the window.

    The differential of a kept chord is expanded, every pure letter of
    length < l is shifted by its augmentation value, and only the constant
    part in the pure letters survives — i.e. words with exactly one mixed
    letter contribute (coefficient × product of pure values) times that
    letter; targets outside the window are dropped on either side.  On a
    valid D that letter is forward-mixed (the mixed-output rule).
    Requires window width ≤ l.
    """
    D.require_valid()
    field = D.field
    a = as_action(window[0])
    b = as_action(window[1], allow_inf=True)
    if not a < b:
        raise ValidationError("window needs a < b")
    l = as_reach(l)
    if b - a > l:
        raise WindowTooWide("window width %s exceeds the augmentation reach %s"
                            % (b - a, l))

    # the augmentation must be lawful on the pure chords it will be used on;
    # a degree-0 chord of D at or beyond the reach is not one of them
    beyond = [c for c in D.chords if c.label in eps.values
              and c.degree == 0 and not c.length < l]
    if beyond:
        raise AugmentationInvalid(
            "nonzero on %r of length %s, not below the augmentation reach %s"
            % (beyond[0].label, beyond[0].length, l))
    below = [c for c in D.chords if c.length < l]
    _augmentation_report(D, eps, below).raise_first(_EXC)

    gens = [c for c in D.forward_mixed() if a <= c.length < b]
    diff = {}
    for m in gens:
        row = {}
        for word, coeff in D.diff_of(m.label).items():
            mixed_at = [i for i, lab in enumerate(word)
                        if D.chord(lab).kind == "mixed"]
            if len(mixed_at) != 1:
                continue  # quadratic and higher parts die in the linear map
            i = mixed_at[0]
            target = D.chord(word[i])
            if not a <= target.length < b:
                continue
            # ε is 0 on a pure letter of length >= l: the checks above leave
            # it nonzero only on degree-0 chords below the reach
            c = eps.of_word(word[:i] + word[i + 1:], coeff)
            if c:
                field.add_scaled(row, {target.label: c}, field.one_raw)
        if row:
            diff[m.label] = row
    return FilteredComplex(field, (a, b),
                           [(c.label, c.length, c.degree) for c in gens],
                           diff)
