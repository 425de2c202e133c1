"""Rhyme enhancement: masked end-of-line substitution to increase rhyming.

Lines are processed in adjacent pairs. For each pair, both line-final words
are masked in turn and a masked-word predictor proposes ranked replacement
candidates; the side whose best candidate yields the longer end-rhyme gets
substituted (never both). A deny list keeps unwanted words out of any
substituted position. The predictor is pluggable: a deterministic
corpus-frequency model ships for desk-scale runs, and a small HTTP client
talks to an external masked-language-model service.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import TYPE_CHECKING, Protocol
from urllib.parse import urlparse

from .corpus import MASK_TOKEN, NL_TOKEN, Verse, load_word_list as load_deny_list
from .metrics import rhyme_length, rhyme_length_vowels
from .phonetics import Lexicon

if TYPE_CHECKING:
    import requests

MODES = ("first_improvement", "best_of_k")


class PredictorError(RuntimeError):
    """Base class for predictor failures."""


class PredictorProtocolError(PredictorError):
    """The remote service answered with a malformed or invalid response."""


class PredictorRetryableError(PredictorError):
    """Transient failure that persisted through all retry attempts."""


@dataclass(frozen=True)
class PredictorQuery:
    """A flattened verse with exactly one position masked."""

    tokens: tuple[str, ...]
    mask_index: int
    k: int = 200

    def __post_init__(self) -> None:
        # bool is an int subclass, but true/false is no position or count.
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not isinstance(self.mask_index, int) or isinstance(self.mask_index, bool):
            raise ValueError(f"mask_index must be an integer, got {self.mask_index!r}")
        if not 0 <= self.mask_index < len(self.tokens):
            raise ValueError(
                f"mask_index {self.mask_index} out of range for {len(self.tokens)} tokens"
            )
        if self.tokens.count(MASK_TOKEN) != 1 or self.tokens[self.mask_index] != MASK_TOKEN:
            raise ValueError("query must contain exactly one mask at mask_index")


# One lexicon's usable candidates by the code of their last vowel:
# last vowel code -> [(token, vowel codes), ...].
VowelIndex = dict[str, list[tuple[str, str]]]


@dataclass(frozen=True)
class CandidateList:
    """Replacement candidates with finite scores, ordered by descending score.

    A list that enhancement reads more than once with the same
    ``EnhanceConfig.k`` and deny list keeps, from its second use on, an
    index of its usable candidates by last vowel for the lexicon of that
    use (see :func:`get_rhyming_replacement`). The memo takes no part in
    the constructor, equality, hash or ``repr``; a stored index is never
    mutated, so threads that race to build one only duplicate work.
    """

    candidates: tuple[tuple[str, float], ...]
    _index_memo: dict[
        tuple[int, frozenset[str]], tuple[Lexicon, VowelIndex] | None
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scores = [s for _, s in self.candidates]
        # NaN compares false both ways, so it would pass the order check.
        if not all(map(math.isfinite, scores)):
            raise ValueError("candidate scores must be finite")
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("candidates not sorted by descending score")

    def tokens(self) -> list[str]:
        return [t for t, _ in self.candidates]


@dataclass(frozen=True)
class EnhanceConfig:
    k: int = 200
    mode: str = "first_improvement"
    deny_list: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


class MaskedPredictor(Protocol):
    """Anything that maps a masked query to ranked candidates, deterministically."""

    def predict(self, query: PredictorQuery) -> CandidateList: ...


def mask_text(verse: Verse, i: int, k: int = 200) -> PredictorQuery:
    """Flatten the verse with NL_TOKEN breaks, masking line i's last token."""
    if not 0 <= i < len(verse.lines):
        raise IndexError(f"line index {i} out of range for {len(verse.lines)}-line verse")
    if not verse.lines[i]:
        raise ValueError("cannot mask empty line")
    tokens: list[str] = []
    mask_index = -1
    for j, line in enumerate(verse.lines):
        if j > 0:
            tokens.append(NL_TOKEN)
        if j == i:
            tokens.extend(line[:-1])
            mask_index = len(tokens)
            tokens.append(MASK_TOKEN)
        else:
            tokens.extend(line)
    return PredictorQuery(tuple(tokens), mask_index, k)


def _usable_candidates(
    raw: CandidateList, cfg: EnhanceConfig, lex: Lexicon
) -> Iterator[tuple[str, str]]:
    """Usable top-``cfg.k`` candidates with their vowel codes, in score order.

    Tokens are lowercased; deny-listed, non-alphabetic and vowel-less ones
    (which rhyme with nothing) are dropped. The generator filters only as
    far as its caller reads, so a scan that stops at the first improvement
    lowercases and tests no later candidate.
    """
    for tok, _ in islice(raw.candidates, cfg.k):
        tok = tok.lower()
        if tok.isalpha() and tok not in cfg.deny_list and (codes := lex.vowel_codes(tok)):
            yield tok, codes


def _vowel_index(raw: CandidateList, cfg: EnhanceConfig, lex: Lexicon) -> VowelIndex | None:
    """The list's usable candidates by last vowel, or None on its first use.

    A list used once (every remote reply) is scanned lazily instead: the
    index costs a pass over all ``cfg.k`` candidates, where a
    ``first_improvement`` scan usually stops early. Indexing every fresh
    200-candidate list more than doubled enhance_verse's CPU per verse,
    measured in process (about 0.95 to 2.2 ms on a 2-vCPU host).

    An index holds one lexicon's vowel codes, so a use with another
    lexicon rebuilds it.
    """
    key = (cfg.k, cfg.deny_list)
    memo = raw._index_memo
    if key not in memo:
        memo[key] = None
        return None
    entry = memo[key]
    if entry is None or entry[0] is not lex:
        index: VowelIndex = {}
        for tok, codes in _usable_candidates(raw, cfg, lex):
            index.setdefault(codes[-1], []).append((tok, codes))
        entry = memo[key] = (lex, index)
    return entry[1]


def get_rhyming_replacement(
    verse: Verse,
    src_idx: int,
    tgt_idx: int,
    query: PredictorQuery,
    predictor: MaskedPredictor,
    cfg: EnhanceConfig,
    lex: Lexicon,
) -> tuple[str, int]:
    """Best replacement for line ``tgt_idx``'s final word, anchored on ``src_idx``.

    Returns ``(token, rhyme_length_vs_anchor)``; the original target word
    comes back unchanged when no candidate strictly improves the rhyme.
    ``first_improvement`` takes the first improving candidate in score
    order, ``best_of_k`` the first with the longest rhyme.

    Only a candidate whose last vowel is the anchor's can improve the
    rhyme; any other has rhyme length 0, so only those are scored, with
    :func:`~verseforge.metrics.rhyme_length_vowels` (the rule of
    ``rhyme_length``) on the lexicon's vowel codes. The first use of a
    candidate list filters its candidates lazily. From the second use on
    (a corpus predictor returns one shared list per ``k``), only the
    anchor's last vowel's bucket of the list's index is read.
    """
    src = verse.lines[src_idx][-1]
    tgt = verse.lines[tgt_idx][-1]
    rl_orig = rhyme_length(src, tgt, lex)
    try:
        raw = predictor.predict(query)
    except PredictorError:
        raise
    except Exception as exc:
        raise PredictorError(
            f"predictor failed (mask_index={query.mask_index}): {exc}"
        ) from exc
    index = _vowel_index(raw, cfg, lex)
    src_codes = lex.vowel_codes(src)
    if not src_codes:
        return tgt, rl_orig
    last = src_codes[-1]
    candidates = _usable_candidates(raw, cfg, lex) if index is None else index.get(last, ())

    # Score order breaks ties in both modes.
    best_tok, best_rl = tgt, rl_orig
    for cand, codes in candidates:
        if codes[-1] != last:
            continue
        rl = rhyme_length_vowels(cand, codes, src, src_codes)
        if rl > best_rl:
            if cfg.mode == "first_improvement":
                return cand, rl
            best_tok, best_rl = cand, rl
    return best_tok, best_rl


def enhance_verse(
    verse: Verse,
    predictor: MaskedPredictor,
    cfg: EnhanceConfig,
    lex: Lexicon,
) -> Verse:
    """Substitute line-final words pairwise to increase end-rhyme length.

    Lines pair up as (0,1), (2,3), ...; an unpaired trailing line is left
    alone. Within a pair at most one word changes: whichever masked side
    offers the longer rhyme against its anchor. Queries always reflect the
    current verse state, so earlier substitutions are visible as context.
    """
    if not verse.lines:
        raise ValueError("enhance_verse requires at least one line")
    work = verse.copy()
    for i in range(0, len(work.lines) - 1, 2):
        query_first = mask_text(work, i, cfg.k)
        query_second = mask_text(work, i + 1, cfg.k)
        cand_1, rl_1 = get_rhyming_replacement(
            work, i + 1, i, query_first, predictor, cfg, lex
        )
        cand_2, rl_2 = get_rhyming_replacement(
            work, i, i + 1, query_second, predictor, cfg, lex
        )
        if rl_2 >= rl_1:
            work.lines[i + 1][-1] = cand_2
        else:
            work.lines[i][-1] = cand_1
    return work


def replaced_positions(before: Verse, after: Verse) -> list[tuple[int, int]]:
    """(line, token) coordinates where two same-shape verses differ."""
    out = []
    for li, (a, b) in enumerate(zip(before.lines, after.lines)):
        if a == b:
            continue
        for ti, (x, y) in enumerate(zip(a, b)):
            if x != y:
                out.append((li, ti))
    return out


class CorpusPredictor:
    """Deterministic frequency stand-in for a masked language model.

    Every vocabulary word is scored by how often it ends a line plus a
    small credit for appearing anywhere; queries get the global top-k,
    independent of context. Ties order lexicographically.

    ``predict`` returns a shared, immutable list: the top-k is built and
    validated on the first query for each ``k`` (a ``k`` beyond the
    vocabulary counts as its size) and the same object is returned for
    every later query with that ``k``. A top-k that fails validation is
    not kept, so each such query raises again.
    """

    def __init__(self, ranking: list[tuple[str, float]]):
        # A private copy: the kept lists cannot go stale.
        self._ranking = tuple(ranking)
        self._top_k: dict[int, CandidateList] = {}

    def predict(self, query: PredictorQuery) -> CandidateList:
        k = min(query.k, len(self._ranking))
        top = self._top_k.get(k)
        if top is None:
            top = self._top_k[k] = CandidateList(self._ranking[:k])
        return top

    def __len__(self) -> int:
        return len(self._ranking)


def build_corpus_predictor(
    verses: list[Verse], lex: Lexicon | None = None
) -> CorpusPredictor:
    """Rank corpus vocabulary by line-final frequency.

    The counting model does not consult ``lex``. It stays accepted because
    callers pass one: the benchmark's stub server and its tests build the
    predictor through ``scripts/predictor_server.py`` with a ``Lexicon()``.
    """
    if not verses:
        raise ValueError("cannot build predictor from an empty corpus")
    final_counts: Counter[str] = Counter()
    total_counts: Counter[str] = Counter()
    for verse in verses:
        for line in verse.lines:
            total_counts.update(line)
            if line:
                final_counts[line[-1]] += 1
    # Integer sort key (10*final + total) avoids float tie instability.
    ranked = sorted(
        total_counts,
        key=lambda w: (-(10 * final_counts[w] + total_counts[w]), w),
    )
    ranking = [(w, final_counts[w] + 0.1 * total_counts[w]) for w in ranked]
    return CorpusPredictor(ranking)


def _predict_url(endpoint: str) -> str:
    base = endpoint.rstrip("/")
    return base if base.endswith("/predict") else base + "/predict"


def remote_predict(
    endpoint: str,
    query: PredictorQuery,
    *,
    attempts: int = 3,
    backoff: float = 0.2,
    timeout: float = 10.0,
    proxies: dict[str, str] | None = None,
) -> CandidateList:
    """POST the query to a masked-prediction service and validate the reply.

    Network failures and 5xx responses are retried with exponential
    backoff (``backoff`` seconds, doubling); a malformed or unsorted
    response, or one with a non-finite score, raises a protocol error
    immediately.

    ``requests`` is imported on the first call, not with the package: no
    other path needs the HTTP stack. ``requests.post`` is looked up on the
    module at each attempt, so a patched ``post`` sees every one.
    ``proxies`` is forwarded to every ``requests.post`` as is; with the
    default ``None``, ``requests`` reads the proxy environment on each
    attempt.
    """
    import requests

    payload = {
        "tokens": list(query.tokens),
        "mask_index": query.mask_index,
        "k": query.k,
    }
    url = _predict_url(endpoint)
    last_failure = "no attempt made"
    for attempt in range(attempts):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:
            resp = requests.post(url, json=payload, timeout=timeout, proxies=proxies)
        except requests.RequestException as exc:
            last_failure = f"request failed: {exc}"
            continue
        if resp.status_code >= 500:
            last_failure = f"server error {resp.status_code}"
            continue
        if resp.status_code != 200:
            raise PredictorProtocolError(
                f"unexpected status {resp.status_code} from {url}: {resp.text[:200]}"
            )
        return _parse_response(resp, query.k)
    raise PredictorRetryableError(
        f"{url} unavailable after {attempts} attempts: {last_failure}"
    )


def _parse_response(resp: requests.Response, k: int) -> CandidateList:
    try:
        body = resp.json()
    except ValueError as exc:
        raise PredictorProtocolError(f"response is not JSON: {_excerpt(resp)}") from exc
    if not isinstance(body, dict) or not isinstance(body.get("candidates"), list):
        raise PredictorProtocolError(f"missing 'candidates' list: {_excerpt(resp)}")
    pairs = _candidate_pairs(body["candidates"], resp)
    if len(pairs) > k:
        raise PredictorProtocolError(
            f"{len(pairs)} candidates exceed requested k={k}: {_excerpt(resp)}"
        )
    try:
        return CandidateList(pairs)
    except ValueError as exc:
        raise PredictorProtocolError(f"{exc}: {_excerpt(resp)}") from exc


def _excerpt(resp: requests.Response) -> str:
    return repr(resp.text[:200])


def _candidate_pairs(items: list, resp: requests.Response) -> tuple[tuple[str, float], ...]:
    """Each item's ``(token, float(score))``; a protocol error at the first bad item.

    A reply is accepted in C-level passes over the whole list: exact types
    suffice, as JSON decoding makes no subclasses. A reply they reject (a
    non-dict item, a token not a ``str``, a score not an ``int`` or
    ``float``, ``bool`` included, or beyond float range) is walked item by
    item only to name the error of its first bad item.
    """
    if set(map(type, items)) <= {dict}:
        tokens = list(map(dict.get, items, repeat("token")))
        scores = list(map(dict.get, items, repeat("score")))
        if set(map(type, tokens)) <= {str} and set(map(type, scores)) <= {int, float}:
            try:
                return tuple(zip(tokens, map(float, scores)))
            except OverflowError:
                pass
    for item in items:
        if (
            type(item) is not dict
            or type(item.get("token")) is not str
            or type(item.get("score")) not in (int, float)
        ):
            break
        try:
            float(item["score"])
        except OverflowError as exc:
            raise PredictorProtocolError(
                f"score out of float range: {_excerpt(resp)}"
            ) from exc
    raise PredictorProtocolError(f"malformed candidate entry: {_excerpt(resp)}")


def _direct_host(url: str) -> str:
    """``url``'s host if ``requests`` would connect to it directly, else ``""``.

    This is the proxy lookup ``requests`` makes on every call, made once,
    on ``url`` as ``requests`` prepares it. A URL that ``requests``
    rejects, or one with no host, gives ``""``: its request then fails as
    it would without the lookup.
    """
    import requests
    from requests.utils import get_environ_proxies, select_proxy

    prepared = requests.PreparedRequest()
    try:
        prepared.prepare_url(url, None)
    except requests.RequestException:
        return ""
    url = prepared.url
    host = urlparse(url).hostname
    if not host or select_proxy(url, get_environ_proxies(url)) is not None:
        return ""
    return host


@dataclass
class RemotePredictor:
    """MaskedPredictor adapter over :func:`remote_predict`.

    The proxy environment is read once, on the first request. If no proxy
    applies to the endpoint, every request passes
    ``proxies={"no_proxy": <endpoint host>}``, which lets ``requests``
    skip its two environment scans per call and connect directly, as it
    would after them. If a proxy applies, requests pass no ``proxies`` and
    ``requests`` resolves it on each call. Proxy variables changed after
    the first request are not seen by this predictor; a copy made with
    :func:`dataclasses.replace` reads them again. The kept host takes no
    part in the constructor, equality or ``repr``; threads that race on
    the first request only repeat the lookup.
    """

    endpoint: str
    attempts: int = 3
    backoff: float = 0.2
    timeout: float = 10.0
    # None until the first request, then _direct_host's answer.
    _no_proxy: str | None = field(default=None, init=False, repr=False, compare=False)

    def predict(self, query: PredictorQuery) -> CandidateList:
        if self._no_proxy is None:
            self._no_proxy = _direct_host(_predict_url(self.endpoint))
        host = self._no_proxy
        return remote_predict(
            self.endpoint,
            query,
            attempts=self.attempts,
            backoff=self.backoff,
            timeout=self.timeout,
            proxies={"no_proxy": host} if host else None,
        )
