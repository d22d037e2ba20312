import dataclasses
import hashlib
import json
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialsim.core import ConfigurationError, FormatError
from socialsim.policy import read_fixtures
from socialsim.population import (
    AgentProfile,
    FollowGraph,
    generate_population,
    generate_seed_corpus,
    load_corpus,
    load_population,
    population_digest,
    population_to_lines,
    save_corpus,
    save_population,
    token_count,
    top_influencers,
)

from reference_rows import reference_population_lines

# Any text, and text of the characters JSON escapes or ensure_ascii=False keeps: quotes, backslashes,
# control characters, and non-ASCII letters and symbols.
_TEXT = st.one_of(st.text(max_size=8), st.text(alphabet='"\\/\x00\x1f\x7f\u2028éß€😀 a', max_size=8))


@st.composite
def _populations(draw):
    """Profiles in any order with distinct ids up to 2**63 - 1, and a graph in which an agent may follow none."""
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6, unique=True))
    profiles = [
        AgentProfile(i, draw(_TEXT), frozenset(draw(st.lists(_TEXT, min_size=1, max_size=4))), draw(st.booleans()), draw(st.booleans()))
        for i in ids
    ]
    follows = {}
    for i in ids:
        others = [j for j in ids if j != i]
        if others and draw(st.booleans()):
            follows[i] = draw(st.sets(st.sampled_from(others)))
    return profiles, FollowGraph(follows)


class TestGeneratePopulation:
    def test_deterministic_byte_for_byte(self):
        p1, g1 = generate_population(558, seed=1)
        p2, g2 = generate_population(558, seed=1)
        assert population_to_lines(p1, g1) == population_to_lines(p2, g2)

    def test_different_seeds_differ(self):
        p1, g1 = generate_population(60, seed=1)
        p2, g2 = generate_population(60, seed=2)
        assert population_to_lines(p1, g1) != population_to_lines(p2, g2)

    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_exactly_eight_influencers(self, seed):
        profiles, _ = generate_population(558, seed=seed)
        assert sum(p.influencer for p in profiles) == 8

    def test_in_degrees_sum_equals_edge_count(self):
        _, graph = generate_population(10, seed=7)
        recount = sum(1 for _ in graph.edges())
        assert sum(graph.in_degrees().values()) == recount == graph.n_edges

    def test_rejects_tiny_populations(self):
        with pytest.raises(ConfigurationError):
            generate_population(9, seed=1)

    def test_influencers_are_top_in_degree(self):
        profiles, graph = generate_population(80, seed=3)
        deg = graph.in_degrees()
        expected = sorted(deg, key=lambda a: (-deg[a], a))[:8]
        flagged = sorted(p.id for p in profiles if p.influencer)
        assert sorted(expected) == flagged

    def test_everyone_follows_an_influencer(self):
        profiles, graph = generate_population(120, seed=5)
        influencers = {p.id for p in profiles if p.influencer}
        for p in profiles:
            assert graph.follows_of(p.id) & influencers, f"agent {p.id} follows no influencer"

    def test_no_self_edges(self):
        _, graph = generate_population(60, seed=9)
        assert all(follower != followee for follower, followee in graph.edges())

    def test_keywords_non_empty(self):
        profiles, _ = generate_population(40, seed=2)
        assert all(p.keywords for p in profiles)


class TestSeedCorpus:
    def test_fifty_unique_bodies(self):
        corpus = generate_seed_corpus(seed=1)
        assert len(corpus) == 50
        assert len(set(corpus)) == 50

    def test_token_counts_in_range(self):
        corpus = generate_seed_corpus(seed=1)
        for body in corpus:
            assert 150 <= token_count(body) <= 300

    def test_deterministic(self):
        assert generate_seed_corpus(seed=1) == generate_seed_corpus(seed=1)
        assert generate_seed_corpus(seed=1) != generate_seed_corpus(seed=2)

    @pytest.mark.parametrize("size", [0, -1])
    def test_no_posts_is_a_configuration_error(self, size):
        with pytest.raises(ConfigurationError, match=f"corpus size must be at least 1, got {size}"):
            generate_seed_corpus(seed=1, size=size)


class TestPopulationIO:
    def test_round_trip(self, tmp_path):
        profiles, graph = generate_population(60, seed=4)
        path = tmp_path / "pop.jsonl"
        save_population(profiles, graph, path)
        loaded_profiles, loaded_graph = load_population(path)
        assert loaded_profiles == sorted(profiles, key=lambda p: p.id)
        assert loaded_graph == graph
        assert population_digest(profiles, graph) == population_digest(loaded_profiles, loaded_graph)

    @settings(max_examples=200, deadline=None)
    @given(_populations())
    @example((
        [AgentProfile(2**63 - 1, 'q"\\\x00\x1fé😀', frozenset({"zeta", "alpha", "\u2028", "mid"}), True, False),
         AgentProfile(0, "", frozenset({"é"}), False, True)],
        FollowGraph({0: [2**63 - 1]}),
    ))
    def test_lines_are_the_population_row_encoding(self, population):
        assert population_to_lines(*population) == reference_population_lines(*population)

    def test_save_returns_population_digest(self, tmp_path):
        profiles, graph = generate_population(60, seed=4)
        path = tmp_path / "pop.jsonl"
        assert save_population(profiles, graph, path) == population_digest(profiles, graph)
        # the digest covers the lines without the file's final newline
        assert hashlib.sha256(path.read_bytes().removesuffix(b"\n")).hexdigest() == population_digest(profiles, graph)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            load_population(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_population(path)

    def test_self_edge_rejected_naming_line(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        rows = [
            {"id": 0, "name": "a", "keywords": ["x"], "verified": False, "follows": [1]},
            {"id": 1, "name": "b", "keywords": ["x"], "verified": False, "follows": [1]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(FormatError, match=r", line 2:.*follows itself"):
            load_population(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        rows = [
            {"id": 0, "name": "a", "keywords": ["x"], "verified": False, "follows": []},
            {"id": 0, "name": "b", "keywords": ["x"], "verified": False, "follows": []},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(FormatError, match=r", line 2:.*duplicate"):
            load_population(path)

    def test_unknown_followee_rejected(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        rows = [{"id": 0, "name": "a", "keywords": ["x"], "verified": False, "follows": [42]}]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        with pytest.raises(FormatError, match="unknown agent ids"):
            load_population(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "pop.jsonl"
        path.write_text('{"id": 0, "name": "a", "keywords": ["x"], "verified": false, "follows": []}\n{broken')
        with pytest.raises(FormatError, match=", line 2:"):
            load_population(path)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = generate_seed_corpus(seed=3, size=10)
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_duplicate_body_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        body = " ".join(["tok"] * 200)
        path.write_text("\n".join(json.dumps({"content": body}) for _ in range(2)))
        with pytest.raises(FormatError, match="duplicate"):
            load_corpus(path)

    def test_out_of_range_tokens_warn_not_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"content": "too short"}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bodies = load_corpus(path)
        assert bodies == ["too short"]
        assert any("token count" in str(w.message) for w in caught)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n")
        with pytest.raises(FormatError, match="empty"):
            load_corpus(path)


_DELETE = object()
_BODY = " ".join(["tok"] * 200)
_ROW_FILES = {
    "population": (load_population, [
        {"id": 0, "name": "a", "keywords": ["x"], "verified": False, "follows": [1]},
        {"id": 1, "name": "b", "keywords": ["x", "y"], "verified": True, "follows": [0]},
    ]),
    "corpus": (load_corpus, [{"content": _BODY}, {"content": _BODY + " more"}]),
    "fixture": (read_fixtures, [{"request_hash": "ab", "response_text": "{}"}, {"request_hash": "cd", "response_text": "{}"}]),
}


def _write_rows(tmp_path, kind, key, value):
    """The file of ``kind`` with line 2's ``key`` set to ``value`` (or deleted); returns (loader, path)."""
    load, rows = _ROW_FILES[kind]
    edited = {k: v for k, v in rows[1].items() if k != key}
    if value is not _DELETE:
        edited[key] = value
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(rows[0]) + "\n" + json.dumps(edited) + "\n")
    return load, path


class TestRowTypes:
    """Every input file is read by core.read_rows with the plan rules: a row's keys
    are its type's fields, each of its annotated type."""

    @pytest.mark.parametrize("kind", sorted(_ROW_FILES))
    def test_valid_rows_load(self, tmp_path, kind):
        load, path = _write_rows(tmp_path, kind, "unused", _DELETE)
        assert len(load(path)) == 2

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            pytest.param("population", "id", True, id="id_bool"),
            pytest.param("population", "id", "1", id="id_text"),
            pytest.param("population", "id", 1.5, id="id_fraction"),
            pytest.param("population", "id", _DELETE, id="id_missing"),
            pytest.param("population", "name", 5, id="name_number"),
            pytest.param("population", "name", None, id="name_null"),
            pytest.param("population", "keywords", "gpu", id="keywords_text"),
            pytest.param("population", "keywords", [1, 2], id="keywords_numbers"),
            pytest.param("population", "keywords", 3, id="keywords_int"),
            pytest.param("population", "verified", "false", id="verified_text"),
            pytest.param("population", "verified", 0, id="verified_number"),
            pytest.param("population", "follows", 3, id="follows_int"),
            pytest.param("population", "follows", "1", id="follows_text"),
            pytest.param("population", "follows", [True], id="follows_bools"),
            pytest.param("population", "follows", _DELETE, id="follows_missing"),
            pytest.param("population", "influencer", True, id="population_unknown_key"),
            pytest.param("corpus", "content", 5, id="content_number"),
            pytest.param("corpus", "content", ["x"], id="content_list"),
            pytest.param("corpus", "content", _DELETE, id="content_missing"),
            pytest.param("corpus", "body", "x", id="corpus_unknown_key"),
            pytest.param("fixture", "request_hash", 1, id="hash_number"),
            pytest.param("fixture", "request_hash", True, id="hash_bool"),
            pytest.param("fixture", "response_text", ["x"], id="response_list"),
            pytest.param("fixture", "response_text", _DELETE, id="response_missing"),
            pytest.param("fixture", "status", 200, id="fixture_unknown_key"),
        ],
    )
    def test_wrongly_typed_value_rejected_naming_file_line_and_key(self, tmp_path, kind, key, value):
        # Regression: a population row loaded "verified": "false" as True, "gpu" as the
        # keywords {"g", "p", "u"} and 5 as the name "5"; "follows": 3 raised TypeError.
        load, path = _write_rows(tmp_path, kind, key, value)
        with pytest.raises(FormatError, match=re.escape(f"{path}, line 2: ") + f".*'{key}'"):
            load(path)

    @pytest.mark.parametrize(
        "kind, key, value, named",
        [
            pytest.param("population", "id", -1, "non-negative", id="negative_id"),
            # Regression: it loaded, and every cell then failed on an OverflowError from the int64 agent ids.
            pytest.param("population", "id", 2**63, re.escape("below 2**63, got 9223372036854775808"), id="id_past_int64"),
            pytest.param("population", "keywords", [], "keywords must be non-empty", id="no_keywords"),
            pytest.param("population", "follows", [1], "follows itself", id="self_follow"),
            pytest.param("corpus", "content", "", "content must be non-empty", id="empty_content"),
        ],
    )
    def test_row_rule_rejected_naming_file_and_line(self, tmp_path, kind, key, value, named):
        load, path = _write_rows(tmp_path, kind, key, value)
        with pytest.raises(FormatError, match=re.escape(f"{path}, line 2: ") + f".*{named}"):
            load(path)


def test_integer_past_the_digit_limit_is_named_by_line(tmp_path):
    # json.loads raises a plain ValueError for an integer of more digits than int() converts; its text is the reason.
    path = tmp_path / "population.jsonl"
    path.write_text('{"id": ' + "7" * 5000 + "}\n")
    with pytest.raises(FormatError) as exc:
        load_population(path)
    assert str(exc.value).startswith(f"{path}, line 1: Exceeds the limit (4300 digits) for integer string conversion")


class TestLineEnds:
    """core.read_rows ends a line at "\n" only; a CRLF line end is one, since "\r" is JSON whitespace."""

    # The characters besides "\n" and "\r" at which str.splitlines breaks a line.
    OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    def test_strings_holding_other_line_breaks_round_trip(self, tmp_path):
        # Regression: save_corpus writes these characters raw, and load_corpus broke the
        # line at each of them, so the file it had written read as "line 1: invalid JSON".
        bodies = [f"{_BODY} {ch} end" for ch in self.OTHER_BREAKS]
        save_corpus(bodies, tmp_path / "corpus.jsonl")
        assert load_corpus(tmp_path / "corpus.jsonl") == bodies
        profiles, graph = generate_population(12, seed=3)
        profiles = [dataclasses.replace(p, name=p.name + ch) for p, ch in zip(profiles, self.OTHER_BREAKS * 2)]
        save_population(profiles, graph, tmp_path / "population.jsonl")
        assert load_population(tmp_path / "population.jsonl") == (profiles, graph)

    def test_bad_line_after_a_string_with_u2028_is_named_by_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"content": _BODY + "\u2028"}, ensure_ascii=False) + "\n\n{\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}, line 3: invalid JSON")):
            load_corpus(path)

    @pytest.mark.parametrize("kind", sorted(_ROW_FILES))
    def test_crlf_line_ends(self, tmp_path, kind):
        load, rows = _ROW_FILES[kind]
        path = tmp_path / f"{kind}.jsonl"
        path.write_bytes("".join(json.dumps(row) + "\r\n" for row in rows).encode())
        assert len(load(path)) == 2

    def test_form_feed_ending_a_line_is_invalid_json(self, tmp_path):
        # Regression: the form feed ended the line, so json.loads never saw it and the row loaded.
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"content": _BODY}) + "\x0c\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}, line 1: invalid JSON")):
            load_corpus(path)


class TestFollowGraph:
    def test_rejects_self_edges(self):
        with pytest.raises(ValueError):
            FollowGraph({1: {1}})

    def test_insertion_order_does_not_matter(self):
        g1 = FollowGraph({0: {1, 2}, 1: {2}, 2: set()})
        g2 = FollowGraph({2: set(), 1: {2}, 0: {2, 1}})
        assert g1 == g2
        assert g1.edges() == g2.edges()

    def test_top_influencers_tie_break_by_id(self):
        # all in-degrees equal: the 3 smallest ids win
        g = FollowGraph({0: {1}, 1: {2}, 2: {3}, 3: {0}})
        assert top_influencers(g, k=3) == [0, 1, 2]
