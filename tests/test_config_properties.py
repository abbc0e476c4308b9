"""Properties of the CLI over (key, raw value) pairs: a value outside its key's
declared domain, or a key the subcommand does not read, exits 2 with a message
naming the key, and `main` returns 0, 1 or 2 and never raises.

Most examples stop after `parse_config`. About one example in ten for
`generate`, `heatmap`, `timeseries` or `sweep` runs end to end, at n = 60 with
one replication. `threshold` and `mmca` stay parse-only: at the all-certain
rates the MMCA iteration runs out its 100,000-step cap.
"""

import contextlib
import io
from unittest import mock

import pytest

from muxepi import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Spellings at the edges of the domains, beside arbitrary short text.
_SPELLINGS = [
    "nan", "-nan", "inf", "-inf", "-0", "0", "1", "2", "-1", "0.5", "1.5", "1e309", "-1e309",
    "", " ", "\t", "٣", "١٠", "５", "1_0", "0x1", "1.0", "random",
    "degree_top", "generate", "0.2,0.3", "0,,1", "0.2,-0", "1,2", "a\x00b",
]
_RAW = st.one_of(
    st.sampled_from(_SPELLINGS),
    st.text(max_size=5),
    st.integers(-5, 80).map(str),
    st.floats().map(repr),
)
_RUNNABLE = ("generate", "heatmap", "timeseries", "sweep")
_BASE = {"n": "60", "replications": "1", "max_steps": "200", "tail_window": "5",
         "lambdas": "0.5", "betas": "0.2", "strategies": "random", "fractions": "0.1"}
# Keys whose value sizes the run: an example that sets one above 60 stays parse-only.
_SIZES = ("n", "max_steps", "replications", "tail_window")


def in_domain(domain, raw: str) -> bool:
    """Whether the stripped `raw` lies in a `cli._KEYS` domain."""
    if isinstance(domain, list):
        return all(in_domain(domain[0], p.strip()) for p in raw.split(",") if p.strip())
    if domain == "path":
        return "\x00" not in raw and raw != ""
    if isinstance(domain[0], str):
        return raw in domain
    kind, low, high = domain
    try:
        value = kind(raw)
    except ValueError:
        return False
    return value >= low and (high is None or value <= high)


def reads(subcommand: str, key: str) -> bool:
    """Whether `subcommand` reads `key`, from the table of `cli._COMMANDS`."""
    declared = (*cli._COMMANDS[subcommand][1], "subcommand", "seed", "out")
    return cli._AXES.get(key, key) in declared


def small(pairs) -> bool:
    return all(not in_domain(cli._KEYS[k], v.strip()) or int(v) <= 60
               for k, v in pairs.items() if k in _SIZES)


@hypothesis.settings(
    deadline=None, max_examples=300,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    pairs=st.dictionaries(st.sampled_from(sorted(cli._KEYS)), _RAW, min_size=1, max_size=3),
    subcommand=st.sampled_from(cli.SUBCOMMANDS),
    draw=st.integers(0, 9),
)
@hypothesis.example(pairs={"awareness_edges": "nope", "contact_edges": "nope"},
                    subcommand="generate", draw=0)
@hypothesis.example(pairs={"awareness_edges": ".", "contact_edges": "."},
                    subcommand="generate", draw=0)
@hypothesis.example(pairs={"replications": "0"}, subcommand="generate", draw=0)
@hypothesis.example(pairs={"lambdas": "nan", "ba_m": "0"}, subcommand="heatmap", draw=0)
@hypothesis.example(pairs={"omega_count": "3"}, subcommand="sweep", draw=0)
@hypothesis.example(pairs={"lambda": "0.3"}, subcommand="generate", draw=0)
@hypothesis.example(pairs={"awareness_edges": ""}, subcommand="threshold", draw=0)
def test_out_of_domain_value_exits_2_naming_the_key(pairs, subcommand, draw, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUXEPI_SEED", raising=False)
    bad = [k for k, v in pairs.items() if not in_domain(cli._KEYS[k], v.strip())]
    unread = [k for k in pairs if not reads(subcommand, k)]
    end_to_end = draw == 0 and subcommand in _RUNNABLE and small(pairs)
    argv = [subcommand, "--out", "out", "--jobs", "1"]
    base = [f"{k}={v}" for k, v in _BASE.items() if reads(subcommand, k)]
    for item in base + [f"{k}={v}" for k, v in pairs.items()]:
        argv += ["--set", item]
    err = io.StringIO()
    run = cli.run if end_to_end else (lambda config: 0)
    with contextlib.redirect_stderr(err), mock.patch.object(cli, "run", run):
        status = cli.main(argv)
    assert status in (0, 1, 2)
    if bad:
        # main parses the --set pairs in order, so the first value outside its domain is named.
        assert status == 2 and f"--set {bad[0]}: " in err.getvalue(), err.getvalue()
    elif unread:
        # With every value in its domain, the first key the subcommand does not read is named.
        assert status == 2, err.getvalue()
        assert f"--set {unread[0]}: {subcommand} reads no {unread[0]}" in err.getvalue()
