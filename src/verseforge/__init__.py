"""Deterministic toolkit for conditional rap-verse generation.

Covers everything around the neural generator: content-word stripping with
noise, phonetic rhyme metrics, hypothesis reranking, masked-prediction
rhyme enhancement, and retrieval baselines. Generation itself is external;
this package produces its conditioning inputs and consumes its hypothesis
batches.
"""

from .corpus import (
    CorpusStats,
    Document,
    Verse,
    corpus_stats,
    filter_by_length,
    load_corpus,
    split_verses,
    tokenize,
)
from .enhance import (
    CandidateList,
    CorpusPredictor,
    EnhanceConfig,
    MaskedPredictor,
    PredictorQuery,
    RemotePredictor,
    build_corpus_predictor,
    enhance_verse,
    get_rhyming_replacement,
    mask_text,
    remote_predict,
)
from .metrics import (
    RhymeConfig,
    ScoredVerse,
    corpus_bleu,
    repetition_score,
    rhyme_density,
    rhyme_length,
    score_verse,
    unigram_overlap,
)
from .phonetics import Lexicon, Pronunciation, load_lexicon, transcribe
from .selection import Hypothesis, RetrievalIndex, build_index, rerank, retrieve
from .stripping import (
    ContentWords,
    NoiseConfig,
    SynonymLexicon,
    emit_training_pair,
    extract_content_words,
    noise_drop,
    noise_shuffle,
    noise_synonym,
)

__version__ = "0.1.0"
