"""Frozen campaign directories: the exact bytes `run_campaign` persists.

Each case runs a small seeded campaign against the in-process simulator and
compares a digest of every file under its out_dir (relative path and sha256
of the contents) with a recorded value.  A refactor of the loop or of the
persistence code must leave these bytes unchanged; an intended change to the
output format or to campaign behaviour re-records them.
"""

import hashlib

import pytest

from tracefuzz.adapter import EngineEndpoint, EngineKind
from tracefuzz.campaign import PROFILE_CHURN, PROFILE_STEADY, CampaignConfig, bootstrap_corpus, run_campaign
from tracefuzz.simulator.config import FaultFamily, SimConfig
from tracefuzz.simulator.endpoint import serve

CASES = {
    # Near ties on every stream: stage 2 dismisses what stage 1 raises.
    "near-tie-dismissals": (
        dict(rng_seed=3, iterations=12, profiles=(PROFILE_STEADY, PROFILE_CHURN), bootstrap_per_profile=2),
        SimConfig(seed=5, near_tie_gap=0.05),
    ),
    # F2 stalls: one confirmed finding, re-raised as duplicates.
    "f2-findings-duplicates": (
        dict(rng_seed=11, iterations=20, profiles=(PROFILE_STEADY,), bootstrap_per_profile=2),
        SimConfig(seed=1).with_faults(FaultFamily.ENGINE_STALL),
    ),
    # Four default-profile seeds, two iterations: two seeds are never run.
    "seeds-not-yet-run": (dict(rng_seed=5, iterations=2), SimConfig(seed=2)),
    # A corpus cap equal to the bootstrap size: every kept mutant evicts.
    "corpus-cap-evicts": (
        dict(rng_seed=7, iterations=14, profiles=(PROFILE_STEADY, PROFILE_CHURN), bootstrap_per_profile=2,
             corpus_cap=4),
        SimConfig(seed=3),
    ),
}

EXPECTED = {
    "near-tie-dismissals": (26, "aeda504b94ab1bd5878e0807ddca9a5756167d4c7ab73d7ab38febd2c2f78713"),
    "f2-findings-duplicates": (29, "47da1edd0d861c341e1abf9e6fcaa45f89afad34dfdea0ef1269d3afef39beab"),
    "seeds-not-yet-run": (12, "3c6158be4db148cb7408d9b3fdd78b6f66725ab473ea29a87bbcae6e7fd69d8b"),
    "corpus-cap-evicts": (12, "6e2c8dd4a8030e83d5d6384a75d18d61d8bdc7f35cb66481746ae831be355c97"),
}


def directory_digest(root) -> tuple[int, str]:
    """(file count, sha256 over the sorted `relative-path sha256-of-bytes` lines)."""
    lines = sorted(
        f"{path.relative_to(root).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}"
        for path in root.rglob("*")
        if path.is_file()
    )
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_persisted_campaign_directory_is_frozen(case, tmp_path):
    kw, sim = CASES[case]
    config = CampaignConfig(**kw)
    endpoint = EngineEndpoint(kind=EngineKind.SIMULATOR, handle=serve(sim))
    result = run_campaign(config, endpoint, out_dir=tmp_path)

    # Each case still exercises the path it is named for.
    if case == "near-tie-dismissals":
        assert result.dismissals and not result.findings
    elif case == "f2-findings-duplicates":
        assert result.findings and any(rec.duplicates for rec in result.findings.values())
    elif case == "seeds-not-yet-run":
        assert sum(not entry.executed for entry in result.corpus) == 2
    else:
        seeds = {entry.entry_id for entry in bootstrap_corpus(config)}
        assert len(result.corpus) == 4 and not seeds <= {entry.entry_id for entry in result.corpus}

    assert directory_digest(tmp_path) == EXPECTED[case]
