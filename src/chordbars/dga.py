"""Differential graded algebras on labelled chords.

Generators are chords carrying a positive rational length, an integer degree
and component endpoints; the algebra is free noncommutative on them.  The
differential is defined on generators and extended by the Leibniz rule with
Koszul signs: crossing a prefix of total degree d costs (-1)^d (over a
characteristic-2 field the sign collapses, no special-casing needed).

Everything downstream — augmentation search, slide/birth morphisms, the
passage to a filtered complex of mixed chords — works with exact field
arithmetic; nothing here ever touches floats.
"""

import itertools
from fractions import Fraction

from .complexes import INF, FilteredComplex, as_action, as_degree
from .errors import (ActionIncrease, AugmentationInvalid, DegreeMismatch,
                     DuplicateId, FieldMismatch, ForeignGenerator,
                     MixedOutputViolation, NotChainMap, NotSquareZero,
                     OrderingViolated, PureChordOfForbiddenLength,
                     SearchBudgetExceeded, ValidationError, WindowTooWide)


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
        ends = (int(ends[0]), int(ends[1]))
        if not set(ends) <= {0, 1}:
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


class AlgebraElement:
    """Finite k-linear combination of words (tuples of chord labels).

    Canonical: no zero coefficients are stored; the empty word is the unit.
    The product is plain concatenation — signs live in the differential.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                c = field.coerce(coeff)
                if c:
                    self.terms[tuple(word)] = c

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def _of_raw(cls, field, terms):
        """Wrap raw {word: coeff} terms that hold no zero, without copying."""
        e = cls(field)
        e.terms = terms
        return e

    @classmethod
    def unit(cls, field, coeff=1):
        return cls(field, {(): coeff})

    @classmethod
    def word(cls, field, labels, coeff=1):
        return cls(field, {tuple(labels): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.field is other.field and self.terms == other.terms

    def _same_field(self, other):
        if other.field is not self.field:
            raise FieldMismatch("element over %r combined with one over %r"
                                % (other.field, self.field))

    def __add__(self, other):
        self._same_field(other)
        out = dict(self.terms)
        self.field.add_scaled(out, other.terms, self.field.one_raw)
        return AlgebraElement._of_raw(self.field, out)

    def __sub__(self, other):
        return self + other.scaled(self.field.neg(self.field.one_raw))

    def scaled(self, raw):
        raw = self.field.coerce(raw)
        e = AlgebraElement(self.field)
        if raw:
            e.terms = {w: self.field.mul(c, raw) for w, c in self.terms.items()}
        return e

    def __mul__(self, other):
        self._same_field(other)
        out = {}
        for w1, c1 in self.terms.items():
            self.field.add_scaled(
                out, {w1 + w2: c2 for w2, c2 in other.terms.items()}, c1)
        return AlgebraElement._of_raw(self.field, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            coeff = self.field.format(self.terms[w])
            body = "*".join(w) if w else "1"
            bits.append("%s·%s" % (coeff, body))
        return " + ".join(bits)


class ChordDGA:
    """Free DGA on chords; the differential is input data, never computed.

    The constructor performs syntactic normalization (unique labels, known
    letters, coefficients coerced into the field); semantic laws — square
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
        self.differential = {}
        for label, elem in (differential or {}).items():
            if label not in self._by_label:
                raise ForeignGenerator("differential of unknown chord %r" % label)
            elem = self._coerce_element(elem)
            for word in elem.terms:
                for letter in word:
                    if letter not in self._by_label:
                        raise ForeignGenerator(
                            "word in d(%s) uses unknown chord %r" % (label, letter))
            if elem:
                self.differential[label] = elem
        self._report = None

    def _coerce_element(self, value):
        if isinstance(value, AlgebraElement):
            if value.field is not self.field:
                raise FieldMismatch("element over %r in a DGA over %r"
                                    % (value.field, self.field))
            return value
        if isinstance(value, dict):
            return AlgebraElement(self.field, value)
        # list of (coeff, word) pairs
        terms = {}
        for coeff, word in value:
            self.field.add_scaled(terms, {tuple(word): self.field.coerce(coeff)},
                                  self.field.one_raw)
        return AlgebraElement._of_raw(self.field, terms)

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

    def element_length(self, elem):
        """Max word length over the support; 0 for scalars (and for 0)."""
        if not elem.terms:
            return Fraction(0)
        return max(self.word_length(w) for w in elem.terms)

    # -- the differential --------------------------------------------------

    def diff_of(self, label):
        return self.differential.get(label, AlgebraElement.zero(self.field))

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
                                       for w, x in d.terms.items()}, c)
            prefix_degree += self.chord(label).degree

    def diff_word(self, word):
        out = {}
        self._add_diff_word(out, word, self.field.one_raw)
        return AlgebraElement._of_raw(self.field, out)

    def diff(self, elem):
        out = {}
        for w, c in self._coerce_element(elem).terms.items():
            self._add_diff_word(out, w, c)
        return AlgebraElement._of_raw(self.field, out)

    def require_valid(self):
        if self._report is None:
            self._report = validate_dga(self)
        if not self._report.ok:
            self._report.raise_first()
        return self


class ReportEntry:
    __slots__ = ("check", "label", "ok", "detail")

    def __init__(self, check, label, ok, detail=""):
        self.check = check
        self.label = label
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        return "ReportEntry(%s on %r: %s%s)" % (
            self.check, self.label, "ok" if self.ok else "FAIL",
            " — " + self.detail if self.detail else "")


class DGAReport:
    _EXC = {"square": NotSquareZero, "degree": DegreeMismatch,
            "length": ActionIncrease, "mixed-output": MixedOutputViolation,
            "graded": AugmentationInvalid, "unital": AugmentationInvalid,
            "vanishes-on-mixed": AugmentationInvalid,
            "kills-boundaries": AugmentationInvalid}

    def __init__(self, entries):
        self.entries = list(entries)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]

    def raise_first(self):
        for e in self.entries:
            if not e.ok:
                exc = self._EXC.get(e.check, ValidationError)
                raise exc("%s (%s on %r)" % (e.detail, e.check, e.label))


def validate_dga(D):
    """Semantic checks with witnesses: per generator, every word of its
    boundary must drop degree by one and length strictly; mixed generators
    may only bound through words containing a mixed letter; and the square
    of the differential must vanish."""
    entries = []
    for c in D.chords:
        elem = D.diff_of(c.label)
        bad_deg = [w for w in elem.terms if D.word_degree(w) != c.degree - 1]
        entries.append(ReportEntry(
            "degree", c.label, not bad_deg,
            "" if not bad_deg else
            "word %s has degree %d, expected %d"
            % ("*".join(bad_deg[0]) or "1", D.word_degree(bad_deg[0]),
               c.degree - 1)))
        bad_len = [w for w in elem.terms if not D.word_length(w) < c.length]
        entries.append(ReportEntry(
            "length", c.label, not bad_len,
            "" if not bad_len else
            "word %s has length %s, not below %s"
            % ("*".join(bad_len[0]) or "1", D.word_length(bad_len[0]), c.length)))
        if c.kind == "mixed":
            bad_mix = [w for w in elem.terms
                       if not any(D.chord(x).kind == "mixed" for x in w)]
            entries.append(ReportEntry(
                "mixed-output", c.label, not bad_mix,
                "" if not bad_mix else
                "word %s of d(%s) contains no mixed chord"
                % ("*".join(bad_mix[0]) or "1", c.label)))
        sq = D.diff(elem)
        entries.append(ReportEntry(
            "square", c.label, not sq,
            "" if not sq else "d(d(%s)) = %r" % (c.label, sq)))
    return DGAReport(entries)


def sub_dga(D, l):
    """Sub-DGA on chords of length strictly below l (l may be INF).

    Strict length decrease of the differential makes the span automatically
    closed, so rows carry over unchanged.
    """
    if l == INF:
        return D
    l = as_action(l)
    keep = [c for c in D.chords if c.length < l]
    labels = {c.label for c in keep}
    diff = {lab: e for lab, e in D.differential.items() if lab in labels}
    return ChordDGA(D.field, keep, diff)


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

    def value_raw(self, label):
        return self.values.get(label, self.field.zero_raw)

    def of_element(self, D, elem):
        """Multiplicative extension: the unit maps to 1, letters multiply."""
        field = self.field
        total = field.zero_raw
        for word, coeff in elem.terms.items():
            v = coeff
            for label in word:
                v = field.mul(v, self.value_raw(label))
                if not v:
                    break
            total = field.add(total, v)
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
    entries = []
    bad = [lab for lab in eps.values
           if not D.has_chord(lab) or D.chord(lab).degree != 0]
    entries.append(ReportEntry(
        "graded", None, not bad,
        "" if not bad else "nonzero on %r which is not a degree-0 chord" % bad[0]))
    badm = [lab for lab in eps.values
            if D.has_chord(lab) and D.chord(lab).kind == "mixed"]
    entries.append(ReportEntry(
        "vanishes-on-mixed", None, not badm,
        "" if not badm else "nonzero on mixed chord %r" % badm[0]))
    for c in D.chords:
        v = eps.of_element(D, D.diff_of(c.label))
        entries.append(ReportEntry(
            "kills-boundaries", c.label, not v,
            "" if not v else
            "eps(d(%s)) = %s" % (c.label, D.field.format(v))))
    return DGAReport(entries)


def find_augmentations(D, candidates=None, budget=100000):
    """Exhaustive augmentation search over the degree-0 pure chords.

    Over a finite field the whole value space is enumerated; over the
    rationals a finite candidate set must be supplied.  ``budget`` caps the
    number of assignments tried (SearchBudgetExceeded beyond it).
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
    found = []
    for combo in itertools.product(values, repeat=len(domain)):
        eps = Augmentation(field, dict(zip(domain, combo)))
        if check_augmentation(D, eps).ok:
            found.append(eps)
    return found


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class DGAMorphism:
    """Algebra morphism determined by generator images (source labels map
    into the target algebra); applied to words multiplicatively."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = {}
        for c in source.chords:
            img = images.get(c.label)
            if img is None:
                img = AlgebraElement.word(target.field, (c.label,))
            self.images[c.label] = img

    def apply(self, elem):
        field = self.target.field
        out = AlgebraElement.zero(field)
        for word, coeff in elem.terms.items():
            acc = AlgebraElement.unit(field, coeff)
            for label in word:
                acc = acc * self.images[label]
            out = out + acc
        return out

    def apply_generator(self, label):
        return self.images[label]

    def compose(self, inner):
        """self ∘ inner (inner runs first)."""
        if inner.target is not self.source and \
                set(inner.target.labels()) != set(self.source.labels()):
            raise ValidationError("cannot compose: the inner morphism's target "
                                  "chords are not this morphism's source chords")
        images = {lab: self.apply(inner.images[lab]) for lab in inner.images}
        return DGAMorphism(inner.source, self.target, images)

    def chain_map_defect(self):
        """First generator where Φ∘∂ ≠ ∂'∘Φ, or None if a chain map."""
        for c in self.source.chords:
            lhs = self.apply(self.source.diff_of(c.label))
            rhs = self.target.diff(self.images[c.label])
            if lhs != rhs:
                return c.label, lhs, rhs
        return None

    def is_chain_map(self):
        return self.chain_map_defect() is None


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
    """Φ fixes every generator except ``a``, which gains unit·word.

    Requires ℓ(a) ≥ total length of the word on both sides, and the result
    must intertwine the two differentials exactly (NotChainMap otherwise —
    that signals inconsistent input data, not a bug here) and map no chord
    to a longer element (ValidationError otherwise).
    """
    _check_bijection(D_minus, D_plus)
    word = tuple(word)
    a_label = a if isinstance(a, str) else a.label
    for D in (D_minus, D_plus):
        if not D.has_chord(a_label):
            raise ForeignGenerator("no chord labelled %r" % a_label)
        if not D.chord(a_label).length >= D.word_length(word):
            raise ValidationError(
                "slide word is longer than the chord it corrects "
                "(%s > %s)" % (D.word_length(word), D.chord(a_label).length))
    field = D_plus.field
    img = AlgebraElement.word(field, (a_label,)) + \
        AlgebraElement.word(field, word, unit)
    phi = DGAMorphism(D_minus, D_plus, {a_label: img})
    defect = phi.chain_map_defect()
    if defect is not None:
        raise NotChainMap(
            "slide images do not intertwine the differentials (witness %r: "
            "%r vs %r)" % defect)
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

    ``D_minus`` must contain the pair (a, b) with ∂a = b; no other chord may
    have length between ℓ(b) and ℓ(a); ``ordering`` lists the chords longer
    than a in ascending length.  The map is the base correction (b picks up
    ∂a − b on the plus side) composed with one correction per listed chord,
    each substituting the first b-letter of its boundary by a.  No image
    may exceed its chord's length by more than ℓ(a) − ℓ(b) (ValidationError
    otherwise).
    """
    _check_bijection(D_minus, D_plus)
    a_label = a_plus if isinstance(a_plus, str) else a_plus.label
    b_label = b_plus if isinstance(b_plus, str) else b_plus.label
    field = D_plus.field
    la = D_plus.chord(a_label).length
    lb = D_plus.chord(b_label).length
    if not lb < la:
        raise OrderingViolated("the pair must satisfy l(%s) < l(%s)"
                               % (b_label, a_label))
    da = D_minus.diff_of(a_label)
    if da != AlgebraElement.word(field, (b_label,)):
        raise ValidationError(
            "the artificial pair needs d(%s) = %s in the source" %
            (a_label, b_label))
    between = [c.label for c in D_plus.chords
               if lb <= c.length <= la and c.label not in (a_label, b_label)]
    if between:
        raise OrderingViolated(
            "chord %r has length inside [%s, %s], the pair is not isolated"
            % (between[0], lb, la))
    longer = [c.label for c in D_plus.chords if c.length > la]
    ordering = [lab if isinstance(lab, str) else lab.label for lab in ordering]
    if set(ordering) != set(longer):
        raise OrderingViolated(
            "ordering must list exactly the chords longer than %s" % a_label)
    lengths = [D_plus.chord(lab).length for lab in ordering]
    if lengths != sorted(lengths):
        raise OrderingViolated("ordering must be ascending in length")

    # base correction: b absorbs (∂⁺a − b), i.e. its image is ∂⁺a
    img_b = D_plus.diff_of(a_label)
    phi = DGAMorphism(D_minus, D_plus, {b_label: img_b})
    for lab in ordering:
        terms = {}
        for w, c in D_plus.diff_of(lab).terms.items():
            w2 = _replace_first(w, b_label, a_label)
            if w2 is not None:
                field.add_scaled(terms, {w2: c}, field.one_raw)
        corr = AlgebraElement._of_raw(field, terms)
        img = AlgebraElement.word(field, (lab,)) + corr
        g = DGAMorphism(D_plus, D_plus, {lab: img})
        # note: g's source label set equals phi's target's, compose is legal
        phi = g.compose(phi)
    defect = phi.chain_map_defect()
    if defect is not None:
        raise NotChainMap(
            "birth images do not intertwine the differentials (witness %r: "
            "%r vs %r)" % defect)
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
    letter; targets outside the window are dropped on either side.
    Requires window width ≤ l.
    """
    D.require_valid()
    field = D.field
    a = as_action(window[0])
    b = as_action(window[1], allow_inf=True)
    if not a < b:
        raise ValidationError("window needs a < b")
    if l != INF:
        l = as_action(l)
        if b == INF or b - a > l:
            raise WindowTooWide(
                "window width %s exceeds the augmentation reach %s"
                % ("inf" if b == INF else b - a, l))

    # the augmentation must be lawful on the pure chords it will be used on
    rep = check_augmentation(sub_dga(D, l), eps)
    if not rep.ok:
        first = rep.failures()[0]
        raise AugmentationInvalid("%s (%s on %r)"
                                  % (first.detail, first.check, first.label))

    gens = [c for c in D.forward_mixed() if a <= c.length and
            (b == INF or c.length < b)]
    diff = {}
    for m in gens:
        row = {}
        for word, coeff in D.diff_of(m.label).terms.items():
            mixed_at = [i for i, lab in enumerate(word)
                        if D.chord(lab).kind == "mixed"]
            if len(mixed_at) != 1:
                continue  # quadratic and higher parts die in the linear map
            i = mixed_at[0]
            target = D.chord(word[i])
            if not target.is_forward_mixed:
                raise MixedOutputViolation(
                    "word %s of d(%s) has a single mixed letter oriented "
                    "backwards" % ("*".join(word), m.label))
            in_window = a <= target.length and (b == INF or target.length < b)
            c = field.one_raw  # product of the pure letters' values
            for j, lab in enumerate(word):
                if j == i:
                    continue
                p = D.chord(lab)
                if l != INF and not p.length < l:
                    # cannot happen for an in-window target: the pure letter
                    # alone eats the whole window width, pushing the mixed
                    # letter below a — kept as a hard guard all the same
                    if in_window:
                        raise PureChordOfForbiddenLength(
                            "pure letter %r of length %s >= %s contributes "
                            "to an in-window target" % (lab, p.length, l))
                    c = field.zero_raw
                    break
                c = field.mul(c, eps.value_raw(lab))
                if not c:
                    break
            if c and in_window:
                field.add_scaled(row, {target.label: coeff}, c)
        if row:
            diff[m.label] = row
    return FilteredComplex(field, (a, b),
                           [(c.label, c.length, c.degree) for c in gens],
                           diff)
