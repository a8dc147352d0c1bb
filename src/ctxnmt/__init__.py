"""Context-extended neural machine translation toolkit.

Pipeline: build context-extended training data from an aligned corpus
(sliding window with document resets), learn/apply BPE subwords, train a
small attention-based encoder-decoder, decode with beam search and savepoint
ensembling, analyze cross-sentential attention, and score translations
(BLEU, chrF3, pronoun categories).
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    ContextConfig,
    ExtendedExample,
    Marking,
    SynthSpec,
    TranslationUnit,
    extend_corpus,
    extract_focus,
    generate_synthetic_corpus,
    mark_context,
)
from .subword import BpeConfig, BpeModel, apply_bpe, learn_bpe, revert_bpe  # noqa: F401
from .model import (  # noqa: F401
    HyperParams,
    ModelParams,
    Vocabulary,
    backward,
    encode,
    forward_loss,
    grad_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .decode import (  # noqa: F401
    BeamConfig,
    beam_decode,
    beam_search,
    extract_scored_segment,
    greedy_decode,
)
from .attnstats import (  # noqa: F401
    PartitionedAttention,
    corpus_external_proportion,
    majority_peak_stats,
    partition,
    word_mass_stats,
    word_peak_stats,
)
from .metrics import (  # noqa: F401
    BleuScore,
    ChrFScore,
    PronounOccurrence,
    bleu,
    categorize_pronoun,
    chi_square_2x2,
    chrf,
    pronoun_accuracy,
    score_extended,
)
