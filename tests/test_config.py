import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minclue.checker import DEFAULT_CLIQUE_CAPS, SearchConfig, baseline_config
from minclue.config import (
    build_search_config,
    config_digest,
    config_header_lines,
    parse_config_text,
)
from minclue.hitting import EngineConfig, SelectionSchedule

degrees = st.integers(1, 8)
small = st.integers(0, 10**6)
positive = st.integers(1, 10**6)


@st.composite
def search_configs(draw):
    # each speed-up drawn on or off, off by its own setting
    degree_checks, consolidating, effective_size = draw(
        st.tuples(st.booleans(), st.booleans(), st.booleans())
    )
    engine = EngineConfig(
        consolidation=draw(
            st.dictionaries(degrees, st.tuples(st.integers(1, 99), st.integers(1, 9999)))
        )
        if consolidating
        else {},
        selection=SelectionSchedule(
            draw(st.none() | st.integers(-5, 30)), draw(small), draw(small)
        )
        if effective_size
        else SelectionSchedule(0, 0, 0),
    )
    clique_degrees = (
        tuple(draw(st.lists(st.integers(2, 8), max_size=6))) if degree_checks else ()
    )
    clique_caps = draw(st.dictionaries(st.integers(2, 8), positive))
    for degree in clique_degrees:
        if degree not in DEFAULT_CLIQUE_CAPS:  # such a degree needs its own cap
            clique_caps.setdefault(degree, draw(positive))
    return SearchConfig(
        max_set_size=draw(st.none() | st.integers(4, 20)),
        family_cap=draw(positive),
        clique_degrees=clique_degrees,
        clique_caps=clique_caps,
        engine=engine,
    )


def round_trip(config, k):
    text = "\n".join(line[2:] for line in config_header_lines(config, k))
    return build_search_config(parse_config_text(text))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(config=search_configs(), k=st.integers(1, 81))
    def test_header_parses_back_to_the_same_config(self, config, k):
        assert round_trip(config, k) == (config, k)

    def test_dropped_default_consolidation_stays_dropped(self):
        config = SearchConfig(engine=EngineConfig(consolidation={1: (7, 128)}))
        lines = config_header_lines(config, 16)
        assert "# consolidate.2=off" in lines
        assert round_trip(config, 16)[0].engine.consolidation == {1: (7, 128)}

    def test_missing_clique_cap_means_the_default(self):
        assert SearchConfig(clique_caps={2: 5}).clique_caps == {**DEFAULT_CLIQUE_CAPS, 2: 5}

    def test_clique_degree_without_a_cap_refused(self):
        with pytest.raises(ValueError, match="clique degree 7.*clique_cap.7"):
            SearchConfig(clique_degrees=(2, 7))
        assert SearchConfig(clique_degrees=(2, 7), clique_caps={7: 9}).clique_caps[7] == 9
        with pytest.raises(ValueError, match="clique_cap.7"):
            build_search_config({"clique_degrees": "2,7"})
        # the degree may come before its cap in the file
        config, _ = build_search_config({"clique_degrees": "2,7", "clique_cap.7": "9"})
        assert config.clique_degrees == (2, 7) and config.clique_caps[7] == 9

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ({"family_cap": "0"}, "family_cap"),
            ({"clique_cap.2": "0"}, "clique_cap.2"),
            ({"selection": "auto:64:-1"}, "widths"),
            ({"consolidate.1": "0:64"}, "triggers and caps"),
            ({"consolidate.2": "3:0"}, "triggers and caps"),
            ({"max_set_size": "3"}, "max_set_size must be at least 4"),
            ({"consolidate.1": "7:4294967297"}, "triggers and caps"),
            ({"consolidate.1": "2147483648:8"}, "triggers and caps"),
            ({"selection": "auto:-1:5"}, "widths"),
        ],
    )
    def test_values_no_grid_can_use_refused(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            build_search_config(pairs)

    def test_comments_outside_a_run_header(self):
        text = "# family_cap=3\nfamily_cap=2\n# consolidation=0\n"
        assert parse_config_text(text) == {"family_cap": "2"}
        header = "\n".join(config_header_lines(SearchConfig(family_cap=3), 7))
        replayed = header + "\ngrid\tline\n# family_cap=2\n"
        assert build_search_config(parse_config_text(replayed)) == (
            SearchConfig(family_cap=3),
            7,
        )

    def test_unknown_key_refused(self):
        with pytest.raises(ValueError):
            build_search_config({"clique_start": "3"})

    def test_baseline_in_config_text(self):
        """The README's spelling of the baseline parses to baseline_config()."""
        text = (
            "clique_degrees=\n"
            + "".join(f"consolidate.{d}=off\n" for d in range(1, 7))
            + "selection=0:0:0\n"
        )
        assert build_search_config(parse_config_text(text)) == (baseline_config(), None)


class TestDigest:
    def test_same_config_same_digest(self):
        assert config_digest(SearchConfig()) == config_digest(round_trip(SearchConfig(), 9)[0])

    def test_any_key_changes_the_digest(self):
        base = config_digest(SearchConfig())
        assert config_digest(SearchConfig(family_cap=100)) != base
        assert config_digest(SearchConfig(clique_caps={4: 3})) != base
        assert config_digest(SearchConfig(engine=EngineConfig(consolidation={}))) != base

    def test_pinned_digests(self):
        """The digests farm checkpoints store: a change to them stops every
        older checkpoint from resuming."""
        assert config_digest(SearchConfig()) == (
            "1eec9b3c0ab8c31ba34ed75d5da6840c260b26b2ba4f47e9af9e45e009de7a1e"
        )
        assert config_digest(baseline_config()) == (
            "28c68725c31a5e8f717744c56a43772635066016da0bf0336063b9904af64b55"
        )
