"""Flat key=value run configuration: parsing, serialization, and mapping
onto SearchConfig/EngineConfig.

This module owns the format in both directions: `build_search_config`
reads every key that `config_header_lines` writes, so a run can be
reproduced from its own report header, and `config_digest` pins the same
text in farm checkpoints.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from .checker import CHECKER_VERSION, SearchConfig
from .hitting import DEFAULT_CONSOLIDATION, SelectionSchedule


def parse_config_text(text: str) -> Dict[str, str]:
    """The key=value pairs of a config file, where `#` lines are comments,
    or of a run header: a text whose first non-blank line is `# version=`
    (as `config_header_lines` writes it) is read as pairs, `# ` removed,
    up to its first line without `#`, so a run's output replays it."""
    pairs: Dict[str, str] = {}
    header = text.lstrip().startswith("# version=")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if header:
            if line and not line.startswith("#"):
                break
            line = line[1:].strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def build_search_config(pairs: Dict[str, str]) -> Tuple[SearchConfig, Optional[int]]:
    """Returns the search configuration plus k when the file pins one."""
    config = SearchConfig()
    engine = config.engine
    k: Optional[int] = None
    consolidation = dict(engine.consolidation)
    clique_degrees = config.clique_degrees
    clique_caps = dict(config.clique_caps)
    selection = engine.selection

    for key, value in pairs.items():
        if key == "k":
            k = int(value)
        elif key == "version":
            pass  # informational
        elif key == "max_set_size":
            config = replace(
                config, max_set_size=None if value == "auto" else int(value)
            )
        elif key == "family_cap":
            config = replace(config, family_cap=int(value))
        elif key == "clique_degrees":
            clique_degrees = tuple(int(tok) for tok in value.split(",") if tok)
        elif key.startswith("clique_cap."):
            clique_caps[int(key.split(".", 1)[1])] = int(value)
        elif key.startswith("consolidate."):
            degree = int(key.split(".", 1)[1])
            if value == "off":
                consolidation.pop(degree, None)
            else:
                trigger, cap = value.split(":")
                consolidation[degree] = (int(trigger), int(cap))
        elif key == "selection":
            full, window, short = value.split(":")
            selection = SelectionSchedule(
                None if full == "auto" else int(full), int(window), int(short)
            )
        else:
            raise ValueError(f"unknown configuration key {key!r}")

    engine = replace(engine, consolidation=consolidation, selection=selection)
    # the degrees go in with the caps: a degree above the defaults is
    # valid only once its cap is known
    config = replace(
        config,
        engine=engine,
        clique_degrees=clique_degrees,
        clique_caps=clique_caps,
    )
    return config, k


def load_config_file(path) -> Tuple[SearchConfig, Optional[int]]:
    with open(path, encoding="utf-8") as fh:
        return build_search_config(parse_config_text(fh.read()))


def _config_pairs(config: SearchConfig) -> List[Tuple[str, object]]:
    """Every key of the configuration except k, in header order."""
    eng = config.engine
    pairs: List[Tuple[str, object]] = [
        ("version", CHECKER_VERSION),
        ("max_set_size", config.max_set_size if config.max_set_size is not None else "auto"),
        ("family_cap", config.family_cap),
        ("clique_degrees", ",".join(map(str, config.clique_degrees))),
    ]
    for d in sorted(config.clique_caps):
        pairs.append((f"clique_cap.{d}", config.clique_caps[d]))
    # a default degree missing from the table is written as off, so that
    # parsing does not bring its default back
    for d in sorted(set(DEFAULT_CONSOLIDATION) | set(eng.consolidation)):
        if d in eng.consolidation:
            trigger, cap = eng.consolidation[d]
            pairs.append((f"consolidate.{d}", f"{trigger}:{cap}"))
        else:
            pairs.append((f"consolidate.{d}", "off"))
    sel = eng.selection
    pairs.append(
        (
            "selection",
            f"{'auto' if sel.full_through is None else sel.full_through}"
            f":{sel.window_width}:{sel.short_width}",
        )
    )
    return pairs


def config_header_lines(config: SearchConfig, k: int) -> List[str]:
    """`# key=value` lines recording the exact configuration of a run;
    `build_search_config(parse_config_text(...))` reads them back."""
    pairs = _config_pairs(config)
    pairs.insert(1, ("k", k))
    return [f"# {key}={value}" for key, value in pairs]


def config_digest(config: SearchConfig) -> str:
    """sha256 of the configuration's key=value lines, k excluded (a farm
    checkpoint records k on its own)."""
    text = "\n".join(f"{key}={value}" for key, value in _config_pairs(config))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
