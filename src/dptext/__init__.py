"""Token-level differentially private text perturbation, private black-box
LLM inference, and privacy/utility evaluation."""

from .attacks import (
    AttackReport,
    MaskedLmClient,
    TokenOutcome,
    build_gpt_attack_prompt,
    embedding_inversion,
    gpt_inference_attack,
    mask_attack,
    parse_gpt_attack_response,
)
from .config import AppConfig, load_app_config
from .dpcore import (
    Rng,
    exp_mechanism_probs,
    minmax_normalize,
    sample_categorical,
    sample_laplace_vector,
)
from .errors import (
    AttackParseError,
    ConfigError,
    ContractError,
    DpTextError,
    EmbeddingDataError,
    EmbeddingFormatError,
    EndpointError,
    EndpointTimeoutError,
    RecordFileError,
    TokenizationError,
    TransientEndpointError,
    VocabIntegrityError,
    VocabParseError,
)
from .mechanisms import (
    AdjacencySample,
    MechanismConfig,
    PerturbedDocument,
    adjacency_within_radius,
    compute_random_adjacency,
    global_adjacency,
    perturb_document,
    perturb_token,
    read_perturbed_jsonl,
    score_candidates,
    topk_adjacency,
    write_perturbed_jsonl,
)
from .metrics import MetricReport, coherence, diversity, levenshtein, ngram_uniqueness
from .pipeline import (
    HttpLlmClient,
    LlmClient,
    LlmEndpointConfig,
    MockLlmClient,
    RunRecord,
    build_inference_prompt,
    build_restoration_prompt,
    load_run_record,
    run_inference,
    run_privinfer,
    save_run_record,
)
from .verify import (
    VerificationResult,
    check_document_privacy_monotonicity,
    check_em_dp,
    check_em_dp_random_tables,
    check_full_support,
    check_membership_monotonicity,
    grid_layout,
    line_layout,
    run_default_suite,
)
from .vocab import (
    EmbeddingTable,
    TokenIdSeq,
    Vocabulary,
    detokenize,
    detokenize_text,
    distance,
    load_embeddings,
    load_merges,
    load_vocabulary,
    tokenize,
)

__version__ = "0.1.0"
