import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptext.attacks import (
    AttackReport,
    _render_token_list,
    build_gpt_attack_prompt,
    embedding_inversion,
    gpt_inference_attack,
    mask_attack,
    parse_gpt_attack_response,
)
from dptext.errors import AttackParseError, ContractError, EndpointError
from dptext.vocab import EmbeddingTable

from .conftest import line_vocab_table

GOLDEN_DIR = Path(__file__).parent / "goldens"

# an answer's tokens; a '#' comment may stand in any gap between them
EXAMPLE_PIECES = ["[", "[", '"a"', "]", ",", "[", '"b"', "]", ",", "]"]
COMMENT = '# was "x" or "y [["z"]]\n'

EXAMPLE_RESPONSE = (
    "[\n"
    '["Prediction1"], # Corresponding to "Privacy"\n'
    '["Prediction2"],\n'
    '["Prediction3"]\n'
    "]"
)


def nearest_ids_oracle(table, vec, k):
    """Independent nearest-neighbor oracle: sort by (distance, id)."""
    import numpy as np

    d = [(float(np.linalg.norm(table.vector(i).astype(float) - vec)), i)
         for i in range(len(table))]
    return [i for _, i in sorted(d)[:k]]


class ScriptedGptClient:
    """Answers the recovery prompt with a fixed per-token prediction map."""

    def __init__(self, mapping):
        self.mapping = mapping
        self.calls = 0

    def generate(self, prompt: str) -> str:
        self.calls += 1
        marker = 'For the given list of "INPUTS":\n'
        start = prompt.rindex(marker) + len(marker)
        end = prompt.index("\n", start)
        tokens = json.loads(prompt[start:end])
        rows = ",\n".join(f"[{json.dumps(self.mapping.get(t, t))}]" for t in tokens)
        return f"Here you go:\n[\n{rows}\n]\nHope that helps."


class TestEmbeddingInversion:
    def test_unperturbed_tokens_recovered_at_k1(self):
        _, table = line_vocab_table([0.0, 1.0, 5.0])
        seq = (0, 1, 2)
        report = embedding_inversion(seq, seq, table, k=1)
        assert report.asr == 1.0
        assert report.privacy == 0.0

    def test_k_equals_vocab_size_recovers_everything(self):
        _, table = line_vocab_table([0.0, 1.0, 5.0])
        perturbed = (2, 2, 2)
        originals = (0, 1, 2)
        report = embedding_inversion(perturbed, originals, table, k=3)
        assert report.asr == 1.0

    def test_one_d_oracle_case(self):
        # layout (0, 1, 5): the two nearest to position 5 are itself and 1,
        # so an original at 0 perturbed to 5 is not recovered at k=2
        _, table = line_vocab_table([0.0, 1.0, 5.0])
        report = embedding_inversion(
            (2,), (0,), table, k=2
        )
        assert report.per_token[0].candidates == [2, 1]
        assert report.per_token[0].candidates == nearest_ids_oracle(
            table, table.vector(2).astype(float), 2
        )
        assert not report.per_token[0].recovered
        assert report.asr == 0.0 and report.privacy == 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                    min_size=1, max_size=12,
                ),
                st.lists(st.integers(-1, 4), min_size=dim, max_size=dim),
            )
        ),
        st.data(),
    )
    def test_nearest_matches_oracle(self, rows_and_point, data):
        # small integer grids: exact distances and many ties, duplicates included;
        # queries at a table row and at an arbitrary grid point
        rows, point = rows_and_point
        table = EmbeddingTable(rows)
        row = table.vector(data.draw(st.integers(0, len(rows) - 1))).astype(float)
        for vec in (row, np.asarray(point, dtype=float)):
            for k in range(1, len(rows) + 1):
                assert table.nearest(vec, k).tolist() == nearest_ids_oracle(table, vec, k)

    def test_candidates_at_k_prefix_of_k_plus_one(self):
        _, table = line_vocab_table([0.0, 0.5, 1.2, 3.0, 4.5])
        seq = (3,)
        previous = None
        for k in range(1, 6):
            report = embedding_inversion(seq, (0,), table, k=k)
            cands = report.per_token[0].candidates
            if previous is not None:
                assert cands[: len(previous)] == previous
            previous = cands

    def test_asr_non_decreasing_in_k(self):
        _, table = line_vocab_table([0.0, 0.5, 1.2, 3.0, 4.5])
        perturbed = (1, 3, 4, 0)
        originals = (0, 0, 2, 3)
        last = 0.0
        for k in range(1, 6):
            report = embedding_inversion(perturbed, originals, table, k=k)
            assert report.asr >= last
            last = report.asr

    def test_length_mismatch_contract(self):
        _, table = line_vocab_table([0.0, 1.0])
        with pytest.raises(ContractError):
            embedding_inversion(
                (0,), (0, 1), table, k=1
            )

    def test_k_contract(self):
        _, table = line_vocab_table([0.0, 1.0])
        with pytest.raises(ContractError):
            embedding_inversion((0,), (0,), table, k=3)

    def test_duplicates_counted_with_multiplicity(self):
        _, table = line_vocab_table([0.0, 1.0, 5.0])
        perturbed = (0, 0, 2, 2)
        originals = (0, 0, 0, 0)
        report = embedding_inversion(perturbed, originals, table, k=1)
        assert report.asr == 0.5
        assert report.privacy == 0.5


class TestBuildGptAttackPrompt:
    def test_example_token_list(self):
        prompt = build_gpt_attack_prompt(["Privacy", "LLM", "Text"])
        assert '["Privacy", "LLM", "Text"]' in prompt

    def test_single_token(self):
        prompt = build_gpt_attack_prompt(["Solo"])
        assert '["Solo"]' in prompt

    def test_empty_list_contract(self):
        with pytest.raises(ContractError):
            build_gpt_attack_prompt([])

    def test_golden(self):
        rendered = build_gpt_attack_prompt(["Privacy", "LLM", "Text"])
        golden = (GOLDEN_DIR / "gpt_attack_prompt.golden.txt").read_text()
        assert rendered == golden

    def test_quotes_escaped(self):
        prompt = build_gpt_attack_prompt(['sa"id', "back\\slash"])
        assert '"sa\\"id", "back\\\\slash"' in prompt


class TestParseGptAttackResponse:
    def test_example_output_format(self):
        preds = parse_gpt_attack_response(EXAMPLE_RESPONSE, 3)
        assert preds == ["Prediction1", "Prediction2", "Prediction3"]

    def test_count_mismatch_is_parse_error(self):
        body = '[\n["A"],\n["B"]\n]'
        with pytest.raises(AttackParseError) as err:
            parse_gpt_attack_response(body, 3)
        assert err.value.body == body

    def test_surrounding_prose_tolerated(self):
        body = (
            "Sure thing! Based on my analysis [see below], the answers are:\n"
            + EXAMPLE_RESPONSE
            + "\nLet me know if you need anything else."
        )
        assert parse_gpt_attack_response(body, 3) == [
            "Prediction1", "Prediction2", "Prediction3",
        ]

    def test_hash_inside_quotes_not_a_comment(self):
        body = '[\n["C#"], # a language\n["F#"]\n]'
        assert parse_gpt_attack_response(body, 2) == ["C#", "F#"]

    def test_no_list_is_parse_error(self):
        with pytest.raises(AttackParseError, match="no bracketed"):
            parse_gpt_attack_response("I cannot help with that.", 1)

    def test_flat_list_rejected(self):
        with pytest.raises(AttackParseError):
            parse_gpt_attack_response('["A", "B"]', 2)

    def test_expected_count_contract(self):
        with pytest.raises(ContractError):
            parse_gpt_attack_response(EXAMPLE_RESPONSE, 0)

    def test_json_escapes_decoded(self):
        assert parse_gpt_attack_response('[["\\n"]]', 1) == ["\n"]
        assert parse_gpt_attack_response('[["\\t"], ["\\u00e9"]]', 2) == ["\t", "\u00e9"]
        body = r'[["\n\t\r\b\f\/\\\""]]'
        assert parse_gpt_attack_response(body, 1) == ["\n\t\r\b\f/\\\""]

    def test_surrogate_pair_joined(self):
        assert parse_gpt_attack_response(r'[["\ud83d\ude00"]]', 1) == ["\U0001F600"]
        # a lone high surrogate stays one code point; the next escape decodes alone
        assert parse_gpt_attack_response(r'[["\ud83d\u0041"]]', 1) == ["\ud83dA"]

    def test_other_escapes_keep_the_escaped_character(self):
        assert parse_gpt_attack_response(r'[["\q"], ["\u12"], ["\uzzzz"]]', 3) == [
            "q", "u12", "uzzzz",
        ]

    def test_odd_quote_in_prose_leaves_comments_in_the_list(self):
        body = 'Answer: 5" tall\n[["a"], # c\n["b"]]'
        assert parse_gpt_attack_response(body, 2) == ["a", "b"]
        assert parse_gpt_attack_response('He said "hi\n[["C#"]]', 1) == ["C#"]

    def test_comments_in_every_gap_between_tokens(self):
        body = COMMENT.join(EXAMPLE_PIECES)
        assert parse_gpt_attack_response(body, 2) == ["a", "b"]

    def test_commas_optional_and_one_may_trail_any_list(self):
        assert parse_gpt_attack_response('[["a"] ["b"],]', 2) == ["a", "b"]
        assert parse_gpt_attack_response('[["a",], ["b" , ]]', 2) == ["a", "b"]
        with pytest.raises(AttackParseError):
            parse_gpt_attack_response('[["a"],, ["b"]]', 2)
        with pytest.raises(AttackParseError):
            parse_gpt_attack_response('[, ["a"]]', 1)

    def test_comment_to_end_of_body_leaves_list_unterminated(self):
        with pytest.raises(AttackParseError, match="no bracketed"):
            parse_gpt_attack_response('[["a"] # ]', 1)

    def test_deep_brackets_are_a_parse_error_not_recursion(self):
        with pytest.raises(AttackParseError, match="no bracketed"):
            parse_gpt_attack_response("[" * 5000, 1)
        body = "[" * 5000 + '"a"' + "]" * 5000
        assert parse_gpt_attack_response(body, 1) == ["a"]

    def test_list_inside_a_prose_comment_is_found_first(self):
        # prose is not parsed, so a '#' there starts no comment
        assert parse_gpt_attack_response('x # [["a"]]\n[["b"]]', 1) == ["a"]

    @settings(max_examples=200, deadline=None)
    @given(tokens=st.lists(st.text(), min_size=1, max_size=8))
    def test_round_trip_in_prompt_quoting_with_odd_quote_comments(self, tokens):
        rows = "".join(f'{_render_token_list([t])}, # "{i}\n' for i, t in enumerate(tokens))
        body = f'Guesses, 5" each:\n[\n{rows}]\nDone.'
        assert parse_gpt_attack_response(body, len(tokens)) == tokens

    def test_round_trip_with_echo_predictions(self):
        tokens = ["alpha", "beta", 'ga"mma']
        client = ScriptedGptClient({})
        body = client.generate(build_gpt_attack_prompt(tokens))
        assert parse_gpt_attack_response(body, 3) == tokens


class TestGptInferenceAttack:
    def test_echoing_originals_gives_full_recovery(self):
        originals = ["one", "two", "three"]
        perturbed = ["uno", "dos", "tres"]
        # the client maps each perturbed token back to its original
        client = ScriptedGptClient(dict(zip(perturbed, originals)))
        report = gpt_inference_attack(perturbed, originals, client)
        assert report.asr == 1.0 and report.privacy == 0.0

    def test_all_wrong_gives_privacy_one(self):
        client = ScriptedGptClient({"a": "x", "b": "y"})
        report = gpt_inference_attack(["a", "b"], ["a", "b"], client)
        assert report.asr == 0.0 and report.privacy == 1.0

    def test_half_recovered(self):
        client = ScriptedGptClient({"p1": "o1", "p2": "wrong", "p3": "o3", "p4": "nope"})
        report = gpt_inference_attack(
            ["p1", "p2", "p3", "p4"], ["o1", "o2", "o3", "o4"], client
        )
        assert report.asr == 0.5 and report.privacy == 0.5

    def test_chunking_merges_results(self):
        tokens = [f"tok{i}" for i in range(5)]
        client = ScriptedGptClient({})
        report = gpt_inference_attack(tokens, tokens, client, chunk_size=2)
        assert client.calls == 3
        assert report.asr == 1.0
        assert [o.position for o in report.per_token] == list(range(5))

    def test_exact_byte_equality_required(self):
        client = ScriptedGptClient({"a": "Apple"})
        report = gpt_inference_attack(["a"], ["apple"], client)
        assert report.asr == 0.0  # case differs

    def test_client_failure_marks_report_failed(self):
        class Broken:
            def generate(self, prompt):
                raise EndpointError("no backend")

        report = gpt_inference_attack(["a"], ["a"], Broken())
        assert report.failed
        assert "no backend" in report.error
        assert report.asr == 0.0 and report.privacy == 1.0

    def test_unparseable_response_marks_report_failed(self):
        class Garbage:
            def generate(self, prompt):
                return "no list here"

        report = gpt_inference_attack(["a"], ["a"], Garbage())
        assert report.failed

    def test_failure_keeps_the_chunks_answered_before_it(self):
        class FailsOnSecondChunk(ScriptedGptClient):
            def generate(self, prompt):
                if self.calls == 1:
                    raise EndpointError("down")
                return super().generate(prompt)

        report = gpt_inference_attack(
            ["a", "b", "c"], ["a", "b", "c"], FailsOnSecondChunk({}), chunk_size=2
        )
        assert report.failed and report.error == "down"
        assert [o.candidates for o in report.per_token] == [["a"], ["b"], []]
        assert [o.recovered for o in report.per_token] == [True, True, False]
        assert report.asr == pytest.approx(2 / 3)

    def test_length_mismatch_contract(self):
        with pytest.raises(ContractError):
            gpt_inference_attack(["a"], ["a", "b"], ScriptedGptClient({}))


class OracleMaskClient:
    """Always predicts the original token (supplied at construction)."""

    def __init__(self, originals):
        self.originals = list(originals)

    def predict(self, tokens, masked_position):
        return [self.originals[masked_position], "filler"]


class TestMaskAttack:
    def test_oracle_client_full_recovery(self):
        originals = ["a", "b", "c"]
        report = mask_attack(["x", "y", "z"], originals, OracleMaskClient(originals), k=1)
        assert report.asr == 1.0

    def test_fixed_wrong_client_no_recovery(self):
        class Wrong:
            def predict(self, tokens, masked_position):
                return ["never"]

        report = mask_attack(["x", "y"], ["a", "b"], Wrong(), k=5)
        assert report.asr == 0.0 and report.privacy == 1.0

    def test_scripted_one_of_three(self):
        class Scripted:
            def predict(self, tokens, masked_position):
                return ["b"] if masked_position == 1 else ["miss"]

        report = mask_attack(["x", "y", "z"], ["a", "b", "c"], Scripted(), k=1)
        assert report.asr == pytest.approx(1 / 3)

    def test_top_k_cutoff(self):
        class Ranked:
            def predict(self, tokens, masked_position):
                return ["first", "second", "target"]

        assert mask_attack(["x"], ["target"], Ranked(), k=2).asr == 0.0
        assert mask_attack(["x"], ["target"], Ranked(), k=3).asr == 1.0

    def test_client_failure_marks_failed(self):
        class Boom:
            def predict(self, tokens, masked_position):
                raise RuntimeError("model offline")

        report = mask_attack(["x"], ["a"], Boom(), k=1)
        assert report.failed
        assert "model offline" in report.error


class TestAttackReport:
    def test_privacy_plus_asr_is_one(self):
        from dptext.attacks import TokenOutcome

        outcomes = [
            TokenOutcome(position=i, recovered=(i % 3 == 0)) for i in range(10)
        ]
        report = AttackReport.from_outcomes("inversion", outcomes)
        assert report.privacy + report.asr == 1.0

    def test_summary_line_format(self):
        report = AttackReport.from_outcomes("inversion", [], meta={"k": 5})
        line = report.summary_line(eps=2.0)
        assert line.startswith("asr=0.0000 privacy=1.0000 k=5 eps=2.0")

    def test_to_dict_serializable(self):
        from dptext.attacks import TokenOutcome

        report = AttackReport.from_outcomes(
            "gpt", [TokenOutcome(position=0, recovered=True, original_text="x")]
        )
        json.dumps(report.to_dict())


class _Down(Exception):
    pass


class _ScriptedAnswers:
    """Answers each gpt chunk or masked position from ``answers`` (one
    candidate list per position) and raises once ``fail_at`` positions are
    reached; a gpt chunk that would reach past them raises whole."""

    def __init__(self, answers, fail_at, chunk_size=1):
        self.answers, self.fail_at, self.chunk_size = answers, fail_at, chunk_size
        self.next = 0

    def generate(self, prompt):
        start, self.next = self.next, self.next + self.chunk_size
        if self.fail_at is not None and self.next > self.fail_at:
            raise EndpointError("down")
        rows = self.answers[start : self.next]
        return "[" + ", ".join(_render_token_list(r[:1]) for r in rows) + "]"

    def predict(self, tokens, masked_position):
        if self.fail_at is not None and masked_position >= self.fail_at:
            raise _Down("down")
        return self.answers[masked_position]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.lists(st.sampled_from("tuvw"), min_size=1, max_size=3),
                 min_size=n, max_size=n),
        st.none() | st.integers(0, n - 1),
        st.integers(1, 4),
    )),
    st.sampled_from(["inversion", "gpt", "mask"]),
)
def test_one_scoring_rule_for_every_attack(case, kind):
    # every attack: one outcome per original; recovered exactly when the
    # original is among the position's candidates; a position left unanswered
    # by a failure is a miss with no candidates; failed iff the client failed
    perturbed, original_ids, answers, fail_at, chunk = case
    _, table = line_vocab_table([0.0, 1.0, 3.0, 7.0])
    originals = ["tuvw"[t] for t in original_ids]
    failed = fail_at is not None
    if kind == "inversion":
        failed = False
        report = embedding_inversion(perturbed, original_ids, table, k=2)
        originals = original_ids
        answered = len(originals)
        said = [table.nearest(table.vector(p), 2).tolist() for p in perturbed]
    elif kind == "gpt":
        client = _ScriptedAnswers(answers, fail_at, chunk)
        report = gpt_inference_attack(["p"] * len(originals), originals, client,
                                      chunk_size=chunk)
        answered = fail_at // chunk * chunk if failed else len(originals)
        said = [a[:1] for a in answers]
    else:
        report = mask_attack(["p"] * len(originals), originals,
                             _ScriptedAnswers(answers, fail_at), k=2)
        answered = fail_at if failed else len(originals)
        said = [a[:2] for a in answers]
    assert len(report.per_token) == len(originals)
    assert report.failed == failed and (report.error is not None) == failed
    for pos, (orig, outcome) in enumerate(zip(originals, report.per_token)):
        assert outcome.position == pos
        if pos < answered:
            assert outcome.candidates == said[pos]
            assert outcome.recovered == (orig in outcome.candidates)
        else:
            assert not outcome.recovered and outcome.candidates == []
    assert report.asr == sum(o.recovered for o in report.per_token) / len(originals)
