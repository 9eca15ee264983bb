"""Command-line front end.

Subcommands: ``perturb`` (document -> perturbed JSONL), ``run`` (full
private-inference round trip), ``attack`` (recovery attacks against a
perturbed JSONL), ``metrics`` (utility metrics over run records), and
``verify`` (the built-in verification suite). Every command honors
``--seed`` and embeds the seed and config snapshot in its outputs, so any
run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys

from . import attacks as attacks_mod
from . import metrics as metrics_mod
from . import verify as verify_mod
from .config import AppConfig, apply_mechanism_overrides, load_app_config, sensitivity
from .dpcore import Rng
from .errors import ConfigError, ContractError, DpTextError
from .fileio import read_text, write_json
from .mechanisms import (
    KINDS,
    SCORING_MODES,
    perturb_document,
    read_perturbed_jsonl,
    write_perturbed_jsonl,
)
from .pipeline import (
    HttpLlmClient,
    MockLlmClient,
    load_run_record,
    run_privinfer,
    save_run_record,
)
from .vocab import detokenize_text, load_embeddings, load_vocabulary, tokenize

logger = logging.getLogger(__name__)

MOCK_RESTORED_TEXT = "[mock restored text]"


class _WrongAnswerMaskClient:
    """Mock masked-LM backend: always predicts a token not in any vocabulary."""

    def predict(self, tokens, masked_position):
        return ["\x00never-a-token\x00"]


class _WrongAnswerGptClient:
    """Mock recovery backend: answers the expected format with wrong tokens."""

    def generate(self, prompt: str) -> str:
        # the prompt's list starts where the template's placeholder does
        start = attacks_mod.GPT_ATTACK_TEMPLATE.index("{input_list}")
        tokens, _ = attacks_mod._parse_list(prompt, start, 1)
        rows = ",\n".join('["\x00wrong\x00"]' for _ in tokens)
        return f"[\n{rows}\n]"


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load_corpus(cfg: AppConfig):
    cfg.require_paths("vocab", "embeddings")
    if cfg.merges_path is not None and not os.path.exists(cfg.merges_path):
        raise ConfigError(f"merges file not found: {cfg.merges_path}")
    vocab = load_vocabulary(cfg.vocab_path, merges_path=cfg.merges_path)
    table = load_embeddings(cfg.embeddings_path, vocab)
    return vocab, table


def cmd_perturb(cfg: AppConfig, args) -> int:
    vocab, table = _load_corpus(cfg)
    text = read_text(args.input, ConfigError)
    seed = cfg.resolved_seed()
    docs = perturb_document(tokenize(text, vocab), table, cfg.mechanism, cfg.n_docs, Rng(seed))
    texts = [detokenize_text(d.perturbed_ids, vocab) for d in docs]
    write_perturbed_jsonl(
        args.out, docs, seed=seed, cfg=cfg.mechanism, redact=args.redact, texts=texts
    )
    _say(args, f"seed = {seed}")
    for d, t in zip(docs, texts):
        dist = metrics_mod.levenshtein(text, t)
        _say(args, f"doc {d.doc_index}: edit_distance={dist}")
    _say(args, f"wrote {len(docs)} perturbed documents to {args.out}")
    return 0


def cmd_run(cfg: AppConfig, args) -> int:
    vocab, table = _load_corpus(cfg)
    text = read_text(args.input, ConfigError)
    if args.truncate_paper_setup:
        text = detokenize_text(tokenize(text, vocab)[:50], vocab)
    if args.mock:
        remote = MockLlmClient(echo=True)
        local = MockLlmClient(default=MOCK_RESTORED_TEXT)
        pool = {}
    else:
        if cfg.remote is None or cfg.restore is None:
            raise ConfigError(
                "run requires [remote] and [restore] endpoint sections (or --mock)"
            )
        remote_cfg = cfg.remote
        if args.truncate_paper_setup:
            remote_cfg = dataclasses.replace(remote_cfg, max_output_tokens=100)
        remote = HttpLlmClient(remote_cfg)
        local = HttpLlmClient(cfg.restore)
        pool = {"max_concurrent": remote_cfg.max_concurrent}
    seed = cfg.resolved_seed()
    record = run_privinfer(
        text, vocab, table, cfg.mechanism, cfg.n_docs, remote, local, Rng(seed), **pool
    )
    path = save_run_record(record, cfg.runs_dir)
    _say(args, f"seed = {seed}")
    _say(args, f"run record: {path}")
    if record.status != "ok":
        print(f"run {record.status}: {record.error}", file=sys.stderr)
        return 1
    _say(args, record.restored_text or "")
    return 0


def cmd_attack(cfg: AppConfig, args) -> int:
    records = read_perturbed_jsonl(args.perturbed)
    if not records:
        raise ContractError(f"no perturbed documents in {args.perturbed}")
    if any("original_ids" not in r for r in records):
        raise ContractError(
            "perturbed file lacks original_ids; attacks evaluate recovery against "
            "the originals, so re-run perturb without --redact for evaluation"
        )
    k = cfg.attack_k
    if args.attack_kind == "inversion":
        _, table = _load_corpus(cfg)
        attack = functools.partial(attacks_mod.embedding_inversion, table=table, k=k)
    else:
        cfg.require_paths("vocab")
        vocab = load_vocabulary(cfg.vocab_path, merges_path=cfg.merges_path)
        if args.attack_kind == "gpt":
            if args.mock:
                client = _WrongAnswerGptClient()
            elif cfg.remote is not None:
                client = HttpLlmClient(cfg.remote)
            else:
                raise ConfigError(
                    "gpt attack requires a [remote] endpoint section (or --mock)"
                )
            on_texts = functools.partial(
                attacks_mod.gpt_inference_attack, client=client,
                chunk_size=cfg.attack_chunk_size,
            )
        elif not args.mock:
            raise ConfigError(
                "no built-in masked-LM backend; the mask attack runs against "
                "a MaskedLmClient via the library API, or use --mock"
            )
        else:
            on_texts = functools.partial(
                attacks_mod.mask_attack, client=_WrongAnswerMaskClient(), k=k
            )

        def attack(ids, original_ids):
            return on_texts([vocab.token_text(t) for t in ids],
                            [vocab.token_text(t) for t in original_ids])
    reports = [attack(r["perturbed_ids"], r["original_ids"]) for r in records]

    eps = records[0].get("config", {}).get("epsilon_em", "-")
    overall = attacks_mod.AttackReport.from_outcomes(
        args.attack_kind, [o for r in reports for o in r.per_token]
    )
    for i, report in enumerate(reports):
        _say(args, f"doc {records[i]['doc_index']}: {report.summary_line(k=k, eps=eps)}")
        if report.failed:
            print(f"doc {records[i]['doc_index']} attack failed: {report.error}",
                  file=sys.stderr)
    print(overall.summary_line(k=k, eps=eps))
    if args.out:
        payload = {
            "kind": args.attack_kind,
            "k": k,
            "eps": eps,
            "seed": records[0].get("seed"),
            "config": records[0].get("config"),
            "aggregate": {"asr": overall.asr, "privacy": overall.privacy},
            "per_document": [r.to_dict() for r in reports],
        }
        write_json(args.out, payload)
        _say(args, f"wrote attack report to {args.out}")
    return 1 if any(r.failed for r in reports) else 0


def cmd_metrics(cfg: AppConfig, args) -> int:
    rows = []
    reports = []
    for path in args.runs:
        record = load_run_record(path)
        restored = record.restored_text or ""
        tokens = restored.split()
        if tokens:
            div_product = metrics_mod.diversity(tokens, "product")
            div_sum = metrics_mod.diversity(tokens, "sum")
        else:
            div_product = div_sum = None
        dists = [
            metrics_mod.levenshtein(record.raw_document, p["text"])
            for p in record.perturbed_documents
        ]
        mean_edit = sum(dists) / len(dists) if dists else None
        rows.append((record.run_id, div_product, div_sum, mean_edit, args.mauve))
        report = metrics_mod.MetricReport(
            diversity=div_product,
            diversity_formula="product",
            edit_distance=round(mean_edit) if mean_edit is not None else None,
            token_count=len(tokens),
            char_count=len(restored),
            mauve=args.mauve,
            extra={"run_id": record.run_id, "diversity_sum": div_sum,
                   "mean_edit_distance": mean_edit, "seed": record.config.get("seed")},
        )
        reports.append(report.to_dict())

    def fmt(v):
        return "-" if v is None else (f"{v:.4f}" if isinstance(v, float) else str(v))

    print(f"{'run_id':<40} {'div(prod)':>10} {'div(sum)':>10} {'edit':>10} {'mauve':>8}")
    for run_id, dp, ds, ed, mv in rows:
        print(f"{run_id:<40} {fmt(dp):>10} {fmt(ds):>10} {fmt(ed):>10} {fmt(mv):>8}")
    if args.out:
        write_json(args.out, reports)
        _say(args, f"wrote metric reports to {args.out}")
    return 0


def cmd_verify(cfg: AppConfig, args) -> int:
    if args.epsilon is not None and not 0 <= args.epsilon < math.inf:
        raise ConfigError(f"--epsilon must be >= 0 and finite, got {args.epsilon}")
    seed = cfg.resolved_seed()
    epsilons = [args.epsilon] if args.epsilon is not None else None
    results = verify_mod.run_default_suite(seed, epsilons=epsilons)
    _say(args, f"seed = {seed}")
    for r in results:
        suffix = " (informational)" if r.informational else ""
        print(r.line() + suffix)
    return verify_mod.suite_exit_code(results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dptext",
        description="Differentially private text perturbation and private "
        "black-box LLM inference.",
    )
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--seed", type=int, help="seed for all randomness")
    parser.add_argument("--mock", action="store_true",
                        help="use deterministic mock backends instead of HTTP")
    parser.add_argument("--quiet", action="store_true", help="only errors and results")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_mech_flags(p):
        # dests are MechanismConfig field names; see apply_mechanism_overrides
        p.add_argument("--kind", choices=KINDS)
        p.add_argument("--epsilon", type=float, dest="epsilon_em", metavar="EPSILON",
                       help="exponential-mechanism epsilon")
        p.add_argument("--epsilon-lap", type=float, dest="epsilon_lap",
                       help="adjacency-noise epsilon (defaults to --epsilon)")
        p.add_argument("--sensitivity", type=sensitivity, dest="laplace_sensitivity",
                       metavar="SENSITIVITY", help="'auto' or a positive number")
        p.add_argument("--scoring-mode", choices=SCORING_MODES, dest="scoring_mode")
        p.add_argument("--top-k", type=int, dest="top_k")

    def add_path_flags(p):
        # dests are AppConfig field names, as are -n's, --k's and --runs-dir's
        p.add_argument("--vocab", dest="vocab_path", help="vocabulary file")
        p.add_argument("--embeddings", dest="embeddings_path", help="embedding file")
        p.add_argument("--merges", dest="merges_path", help="BPE merges file")

    p = sub.add_parser("perturb", help="write N perturbed copies of a document")
    p.add_argument("--input", required=True, help="document text file")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("-n", type=int, dest="n_docs",
                   help="number of perturbed documents (default: [run] n_docs)")
    p.add_argument("--redact", action="store_true",
                   help="omit original ids from the output")
    add_path_flags(p)
    add_mech_flags(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("run", help="perturb, generate remotely, restore locally")
    p.add_argument("--input", required=True, help="document text file")
    p.add_argument("-n", type=int, dest="n_docs", help="number of perturbed prompts")
    p.add_argument("--runs-dir", dest="runs_dir", help="directory for run records")
    p.add_argument("--truncate-paper-setup", action="store_true",
                   help="use the first 50 tokens and a 100-token generation budget")
    add_path_flags(p)
    add_mech_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="run a recovery attack on a perturbed JSONL")
    p.add_argument("--perturbed", required=True, help="perturbed JSONL from perturb")
    p.add_argument("--kind", choices=["inversion", "gpt", "mask"], required=True,
                   dest="attack_kind")
    p.add_argument("--k", type=int, dest="attack_k",
                   help="candidate budget for inversion/mask")
    p.add_argument("--out", help="write the full attack report JSON here")
    add_path_flags(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("metrics", help="utility metrics over run records")
    p.add_argument("runs", nargs="+", help="run record JSON files")
    p.add_argument("--mauve", type=float, default=None,
                   help="externally computed value to include in the table")
    p.add_argument("--out", help="write metric reports as JSON here")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--epsilon", type=float, default=None,
                   help="check the mechanism ratio bound at this epsilon only")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.ERROR if args.quiet else logging.WARNING)
    try:
        cfg = load_app_config(args.config)
        for f in dataclasses.fields(AppConfig):  # flags whose dests are field names
            if (value := getattr(args, f.name, None)) is not None:
                setattr(cfg, f.name, value)
        apply_mechanism_overrides(cfg, args)
        return args.func(cfg, args)
    except DpTextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
