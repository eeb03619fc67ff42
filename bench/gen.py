"""Seeded input generator for the kpeval benchmark, with its own expectations.

Everything here is independent of kpeval: documents are written with this
module's own `.txt`/`.ann` writer, and every expected result (scores per
subtask, scenario and genre, corpus statistics, round-trip counts, gazetteer
majority types) is computed by plain set arithmetic over the tuples the
generator produced.  The benchmark compares kpeval's output against these
numbers, never against a stored copy of an earlier output.

Text is built from words that are each exactly one kpeval token (letters,
optionally joined by an internal hyphen), separated by whitespace, so that a
span's word count is `len(surface.split())` and every generated span is
token-aligned unless it is shifted on purpose.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

TYPES = ("Material", "Process", "Task")  # also the documented tie-break priority
HYPONYM = "Hyponym-of"
SYNONYM = "Synonym-of"
SUBTASKS = {1: ("A", "B", "C"), 2: ("B", "C"), 3: ("C",)}
GENRES = ("CS", "MS", "Phy")

WORDS = tuple(
    """
    adsorption alloy anneal anode beam binder boundary buffer cathode cell
    channel cluster coating coefficient composite conduction convection core
    crystal current decay defect density deposition diffusion dipole domain
    dopant electrode electrolyte emission energy entropy epitaxy etching
    excitation exciton fatigue fiber field film flux fracture friction gain
    gate grain graph grid hardness heat hysteresis interface ion isotope
    kernel lattice layer lens ligand magnet mass matrix membrane mesh metal
    model mode molecule monomer network neuron node noise nucleus optics
    oxide particle phase phonon photon plasma polymer pore powder probe
    protein pulse quantum reactor resin resonance sample scattering sensor
    signal sintering solvent solver spectrum spin strain stress substrate
    surface tensor thermal transistor tunnel vacancy vector voltage wafer
    wave yield zeolite segmentation retrieval parsing tagging ranking
    classifier embedding regression inference annotation corpus ontology
    clustering alignment extraction summarization translation recognition
    graphene perovskite silicon titanium nanotube nanowire quartz ceramic
    façade naïve ångström zürich bézier schrödinger fermi-dirac x-ray
    state-of-the-art end-to-end
    """.split()
)


def normalize(surface: str) -> str:
    """The documented surface normalization: case-fold, collapse whitespace."""
    return " ".join(surface.casefold().split())


@dataclass
class Doc:
    """One generated document, as tuples.

    `spans` maps an id to (type, start, end) with offsets in code points of
    `text` (the BOM, when written, comes before offset 0).  Relations are
    kept in the three shapes the writer emits: hyponym pairs as `R` lines,
    synonym groups as `*` lines (k ids expand to k*(k-1)/2 pairs) and
    synonym pairs as `R ... Synonym-of` lines.
    """

    doc_id: str
    text: str
    spans: dict[str, tuple[str, int, int]]
    hyponyms: list[tuple[str, str]] = field(default_factory=list)
    synonym_groups: list[tuple[str, ...]] = field(default_factory=list)
    synonym_r: list[tuple[str, str]] = field(default_factory=list)
    nested: frozenset[str] = frozenset()   # inner spans inside a longer span
    shifted: frozenset[str] = frozenset()  # spans starting 1 char into a token
    words: list[list[tuple[int, int]]] = field(default_factory=list)
    bom: bool = False
    irregular: bool = False

    def relations(self) -> list[tuple[str, str, str]]:
        """Every relation entry as kpeval parses it, duplicates included."""
        rels = [(HYPONYM, a, b) for a, b in self.hyponyms]
        for group in self.synonym_groups:
            rels.extend((SYNONYM, a, b) for a, b in itertools.combinations(group, 2))
        rels.extend((SYNONYM, a, b) for a, b in self.synonym_r)
        return rels


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """The knobs of one corpus shape."""

    n_sentences: int = 8
    words: tuple[int, int] = (13, 21)
    mentions: int = 20
    relations: int = 4
    nest_rate: float = 0.0       # share of multi-word spans given an inner span
    shift_rate: float = 0.0      # share of spans shifted one char inward
    irregular: bool = False      # BOM, odd case, `*` groups, R Synonym-of, NBSP


_WIDTHS = (1, 1, 1, 2, 2, 2, 3, 3, 4, 5)


def make_doc(rng: random.Random, doc_id: str, shape: Shape) -> Doc:
    """Generate one paragraph with its annotations."""
    parts: list[str] = []
    words: list[list[tuple[int, int]]] = []
    pos = 0
    for s in range(shape.n_sentences):
        if s:
            parts.append(" ")
            pos += 1
        offsets = []
        for w in range(rng.randint(*shape.words)):
            word = rng.choice(WORDS)
            if w == 0:
                word = word[0].upper() + word[1:]
            else:
                gap = " "
                if shape.irregular and rng.random() < 0.02:
                    gap = rng.choice(("  ", "\u00a0"))
                parts.append(gap)
                pos += len(gap)
            parts.append(word)
            offsets.append((pos, pos + len(word)))
            pos += len(word)
        parts.append(".")
        pos += 1
        words.append(offsets)
    text = "".join(parts)

    # Non-overlapping top-level spans, then optional nested inner spans.
    free = [list(range(len(ws))) for ws in words]
    ranges: list[tuple[int, int, int]] = []  # (sentence, first word, last word)
    for _ in range(shape.mentions * 4):
        if len(ranges) >= shape.mentions:
            break
        s = rng.randrange(shape.n_sentences)
        width = rng.choice(_WIDTHS)
        idx = free[s]
        starts = [i for i in range(len(idx) - width + 1)
                  if idx[i + width - 1] - idx[i] == width - 1]
        if not starts:
            continue
        at = rng.choice(starts)
        ranges.append((s, idx[at], idx[at + width - 1]))
        del idx[at:at + width]
    ranges.sort()
    inner: list[tuple[int, int, int]] = []
    for s, first, last in ranges:
        if last > first and rng.random() < shape.nest_rate:
            width = rng.randint(1, last - first)
            at = rng.randint(first, last - width + 1)
            inner.append((s, at, at + width - 1))

    spans: dict[str, tuple[str, int, int]] = {}
    by_sentence: list[list[str]] = [[] for _ in words]
    nested = set()
    for n, (s, first, last) in enumerate(ranges + inner, 1):
        kp_id = f"T{n}"
        spans[kp_id] = ("", words[s][first][0], words[s][last][1])
        by_sentence[s].append(kp_id)
        if n > len(ranges):
            nested.add(kp_id)

    doc = Doc(doc_id, text, spans, nested=frozenset(nested), words=words,
              irregular=shape.irregular)
    used = _add_relations(rng, doc, by_sentence, shape)
    _assign_types(rng, doc, by_sentence, used)

    if shape.shift_rate:
        top = sorted((k for k in spans if k not in nested), key=lambda k: int(k[1:]))
        # The shifted span must still start on a letter, so it keeps its word count.
        eligible = [k for k in top if text[spans[k][1] + 1].isalpha()]
        shifted = rng.sample(eligible, round(shape.shift_rate * len(top)))
        for kp_id in shifted:
            t, start, end = spans[kp_id]
            spans[kp_id] = (t, start + 1, end)
        doc.shifted = frozenset(shifted)
    doc.bom = shape.irregular and rng.random() < 0.05
    return doc


def _add_relations(rng, doc: Doc, by_sentence: list[list[str]],
                   shape: Shape) -> set[frozenset[str]]:
    """Intra-sentence relations, at most one per unordered pair of spans."""
    used: set[frozenset[str]] = set()
    rich = [ids for ids in by_sentence if len(ids) >= 2]
    if not rich:
        return used
    if shape.irregular and rng.random() < 0.3:
        triples = [ids for ids in by_sentence if len(ids) >= 3]
        if triples:
            group = tuple(rng.sample(rng.choice(triples), 3))
            doc.synonym_groups.append(group)
            used.update(frozenset(p) for p in itertools.combinations(group, 2))
    for _ in range(shape.relations * 4):
        if len(used) >= shape.relations:
            break
        a, b = rng.sample(rng.choice(rich), 2)
        if frozenset((a, b)) in used:
            continue
        used.add(frozenset((a, b)))
        if rng.random() < 0.6:
            doc.hyponyms.append((a, b))
        elif shape.irregular and rng.random() < 0.4:
            doc.synonym_r.append((a, b))
        else:
            doc.synonym_groups.append((a, b))
    return used


def _assign_types(rng, doc: Doc, by_sentence: list[list[str]],
                  used: set[frozenset[str]]) -> None:
    """Related spans share a type; a few documents get one cross-type link."""
    parent = {k: k for k in doc.spans}

    def root(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for _, a, b in doc.relations():
        parent[root(a)] = root(b)
    component_type: dict[str, str] = {}
    for kp_id, (_, start, end) in doc.spans.items():
        t = component_type.setdefault(root(kp_id), rng.choice(TYPES))
        doc.spans[kp_id] = (t, start, end)
    if rng.random() < 0.1:
        pairs = [
            (a, b)
            for ids in by_sentence
            for a, b in itertools.combinations(ids, 2)
            if doc.spans[a][0] != doc.spans[b][0] and frozenset((a, b)) not in used
        ]
        if pairs:
            doc.hyponyms.append(rng.choice(pairs))


def make_corpus(rng: random.Random, prefix: str, n_docs: int, shape: Shape) -> list[Doc]:
    return [make_doc(rng, f"{prefix}{i:05d}", shape) for i in range(n_docs)]


# ---------------------------------------------------------------------------
# Noisy predictions that respect each scenario's givens
# ---------------------------------------------------------------------------


def make_prediction(rng: random.Random, gold: Doc, scenario: int) -> Doc:
    """A participant-like prediction for one gold document.

    Scenario 1 drops, retypes and moves spans and adds spurious ones;
    scenario 2 keeps the gold boundaries and retypes; scenario 3 keeps the
    gold typed spans.  All scenarios drop and add relations.
    """
    spans: dict[str, tuple[str, int, int]] = {}
    seen: set[tuple[int, int]] = set()
    mapped: dict[str, str] = {}

    def add(t, start, end, gold_id=None):
        if (start, end) in seen:
            return
        seen.add((start, end))
        kp_id = f"T{len(spans) + 1}"
        spans[kp_id] = (t, start, end)
        if gold_id is not None:
            mapped[gold_id] = kp_id

    for kp_id, (t, start, end) in gold.spans.items():
        if scenario == 1:
            roll = rng.random()
            if roll < 0.12:
                continue
            if roll < 0.20:
                t = rng.choice(TYPES)
            elif roll < 0.26:
                start, end = _moved(rng, gold, start, end)
        elif scenario == 2 and rng.random() < 0.15:
            t = rng.choice(TYPES)
        add(t, start, end, kp_id)
    if scenario == 1:
        for sentence in gold.words:
            if rng.random() < 0.1:
                width = rng.randint(1, 3)
                first = rng.randrange(len(sentence) - width + 1)
                add(rng.choice(TYPES), sentence[first][0], sentence[first + width - 1][1])

    pred = Doc(gold.doc_id, gold.text, spans)
    pairs: set[frozenset[str]] = set()
    for rtype, a, b in gold.relations():
        if a in mapped and b in mapped and rng.random() < 0.75:
            pa, pb = mapped[a], mapped[b]
            if frozenset((pa, pb)) not in pairs:
                pairs.add(frozenset((pa, pb)))
                (pred.hyponyms if rtype == HYPONYM else pred.synonym_groups).append((pa, pb))
    ids = list(spans)
    if len(ids) >= 2 and rng.random() < 0.3:
        pa, pb = rng.sample(ids, 2)
        if frozenset((pa, pb)) not in pairs:
            (pred.hyponyms if rng.random() < 0.5 else pred.synonym_groups).append((pa, pb))
    return pred


def _moved(rng, gold: Doc, start: int, end: int) -> tuple[int, int]:
    """Grow or shrink a span by one word inside its sentence."""
    for sentence in gold.words:
        starts = [w[0] for w in sentence]
        ends = [w[1] for w in sentence]
        if start in starts and end in ends:
            i, j = starts.index(start), ends.index(end)
            if j > i and rng.random() < 0.5:
                return sentence[i][0], sentence[j - 1][1]
            if j + 1 < len(sentence):
                return sentence[i][0], sentence[j + 1][1]
            return start, end
    return start, end


def retyped_copy(rng: random.Random, gold: Doc) -> Doc:
    """The same document with about half of the types changed, nothing else."""
    spans = {}
    for kp_id, (t, start, end) in gold.spans.items():
        if rng.random() < 0.5:
            t = TYPES[(TYPES.index(t) + rng.randint(1, 2)) % 3]
        spans[kp_id] = (t, start, end)
    return Doc(gold.doc_id, gold.text, spans, list(gold.hyponyms),
               list(gold.synonym_groups), list(gold.synonym_r))


# ---------------------------------------------------------------------------
# Writer (independent of kpeval's serializer)
# ---------------------------------------------------------------------------


def _case(rng: random.Random, s: str) -> str:
    return rng.choice((s, s.lower(), s.upper(), s.swapcase()))


def ann_text(doc: Doc, rng: random.Random | None = None) -> str:
    """Render `.ann` content; with `rng` and an irregular doc, vary the form."""
    odd = rng is not None and doc.irregular
    t_lines = []
    for kp_id, (t, start, end) in doc.spans.items():
        if odd and rng.random() < 0.2:
            t = _case(rng, t)
        t_lines.append(f"{kp_id}\t{t} {start} {end}\t{doc.text[start:end]}")
    if odd and rng.random() < 0.1:
        rng.shuffle(t_lines)
    lines = t_lines
    for group in doc.synonym_groups:
        rtype = _case(rng, SYNONYM) if odd and rng.random() < 0.2 else SYNONYM
        lines.append(f"*\t{rtype} {' '.join(group)}")
    r = 0
    for rtype, pairs in ((HYPONYM, doc.hyponyms), (SYNONYM, doc.synonym_r)):
        for a, b in pairs:
            r += 1
            name = _case(rng, rtype) if odd and rng.random() < 0.2 else rtype
            lines.append(f"R{r}\t{name} Arg1:{a} Arg2:{b}")
    return "".join(line + "\n" for line in lines)


def write_corpus(dir_path: Path, docs: list[Doc], rng: random.Random | None = None,
                 with_text: bool = True) -> None:
    dir_path.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        if with_text:
            body = ("\ufeff" if doc.bom else "") + doc.text
            (dir_path / f"{doc.doc_id}.txt").write_bytes(body.encode("utf-8"))
        (dir_path / f"{doc.doc_id}.ann").write_bytes(ann_text(doc, rng).encode("utf-8"))


# ---------------------------------------------------------------------------
# Expectations by set arithmetic
# ---------------------------------------------------------------------------


def items(doc: Doc | None) -> dict[str, set]:
    """The scorer's comparable items per subtask, from the generated tuples."""
    if doc is None:
        return {"A": set(), "B": set(), "C": set()}
    span = {k: (s, e) for k, (_, s, e) in doc.spans.items()}
    rels = set()
    for rtype, a, b in doc.relations():
        if rtype == HYPONYM:
            rels.add((rtype, span[a], span[b]))
        else:
            rels.add((rtype, frozenset((span[a], span[b]))))
    return {
        "A": set(span.values()),
        "B": {(s, e, t) for t, s, e in doc.spans.values()},
        "C": rels,
    }


def add_counts(total: dict[str, list[int]], gold: dict[str, set], pred: dict[str, set],
               subtasks=("A", "B", "C")) -> None:
    for task in subtasks:
        g, p = gold[task], pred[task]
        row = total.setdefault(task, [0, 0, 0])
        row[0] += len(g & p)
        row[1] += len(p - g)
        row[2] += len(g - p)


def expected_scores(gold: list[Doc], pred: dict[str, Doc], scenario: int,
                    genres: dict[str, str] | None = None) -> dict:
    """{section: {subtask: [tp, fp, fn]}}; section None is the whole corpus."""
    result: dict = {None: {}}
    for doc in gold:
        g, p = items(doc), items(pred.get(doc.doc_id))
        add_counts(result[None], g, p, SUBTASKS[scenario])
        if genres is not None:
            genre = genres.get(doc.doc_id, "unmapped")
            add_counts(result.setdefault(genre, {}), g, p, SUBTASKS[scenario])
    return result


def roundtrip(doc: Doc, snap: bool) -> Doc:
    """What encode-then-decode keeps of a document, by the codec's documented rules.

    Nested inner spans lose the overlap to their longer outer span.  A span
    that misses token boundaries is dropped, or with `snap` comes back as
    the token span enclosing it.  Relations follow their arguments.
    """
    spans = {}
    for kp_id, (t, start, end) in doc.spans.items():
        if kp_id in doc.nested:
            continue
        if kp_id in doc.shifted:
            if not snap:
                continue
            start -= 1
        spans[kp_id] = (t, start, end)
    keep = lambda pairs: [(a, b) for a, b in pairs if a in spans and b in spans]
    groups = [(a, b) for g in doc.synonym_groups for a, b in itertools.combinations(g, 2)]
    return Doc(doc.doc_id, doc.text, spans, keep(doc.hyponyms), keep(groups),
               keep(doc.synonym_r))


def expected_roundtrip(gold: list[Doc], snap: bool) -> dict[str, list[int]]:
    total: dict[str, list[int]] = {}
    for doc in gold:
        add_counts(total, items(doc), items(roundtrip(doc, snap)))
    return total


def expected_stats(docs: list[Doc], k: int = 10) -> dict:
    """The numbers `kpeval stats --json` reports, from the generated tuples."""
    frequency: dict[str, int] = {}
    mentions = single = ge3 = ge5 = 0
    for doc in docs:
        for _, start, end in doc.spans.values():
            surface = doc.text[start:end]
            n_words = len(surface.split())
            mentions += 1
            single += n_words == 1
            ge3 += n_words >= 3
            ge5 += n_words >= 5
            key = normalize(surface)
            frequency[key] = frequency.get(key, 0) + 1
    unique = len(frequency)
    singletons = sum(1 for c in frequency.values() if c == 1)
    pct = lambda part, whole: 100.0 * part / whole if whole else 0.0
    return {
        "n_mentions": mentions,
        "n_unique": unique,
        "pct_singleton": pct(singletons, unique),
        "pct_single_word": pct(single, mentions),
        "pct_len_ge3": pct(ge3, mentions),
        "pct_len_ge5": pct(ge5, mentions),
        "top_k": [list(p) for p in sorted(frequency.items(), key=lambda p: (-p[1], p[0]))[:k]],
    }


def expected_warnings(docs: list[Doc]) -> int:
    """Cross-type relation entries, which `validate` counts as warnings."""
    return sum(
        1
        for doc in docs
        for _, a, b in doc.relations()
        if doc.spans[a][0] != doc.spans[b][0]
    )


def majority_types(train: list[Doc]) -> dict[str, str]:
    """Normalized training surface -> its most frequent type (ties: TYPES order)."""
    counts: dict[str, dict[str, int]] = {}
    for doc in train:
        for t, start, end in doc.spans.values():
            per = counts.setdefault(normalize(doc.text[start:end]), {})
            per[t] = per.get(t, 0) + 1
    return {
        key: max(TYPES, key=lambda t: (per.get(t, 0), -TYPES.index(t)))
        for key, per in counts.items()
    }
