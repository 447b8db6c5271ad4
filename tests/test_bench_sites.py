"""The benchmark tracer's patch sites must name live package attributes.

perfbench/tracer.py wraps each layer by rebinding ``(module, attribute)``
pairs.  A rename in the package would make the traced benchmark fail (or, for
a second import site, silently miss calls); this guards against that, and
against run_campaign binding bootstrap_corpus early, which the benchmark
worker replaces to time setup.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _patch_sites() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_SITES


PATCH_SITES = _patch_sites()


@pytest.mark.parametrize("layer", sorted(PATCH_SITES))
def test_every_patch_site_resolves_to_one_callable(layer):
    sites = PATCH_SITES[layer]
    for owner, attr in sites:
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr} is gone"
    # Every site must reach the same function, or wrapping the first misses calls through the rest.
    assert len({id(getattr(owner, attr)) for owner, attr in sites}) == 1, layer


class _SetupOver(Exception):
    pass


def test_replacing_bootstrap_corpus_takes_effect_inside_run_campaign(monkeypatch):
    # perfbench/worker.py times setup_s by swapping in a bootstrap_corpus that
    # raises where the first iteration would start.  If run_campaign bound the
    # function early, the setup-only processes would run whole campaigns.
    from tracefuzz import campaign

    def setup_over(config):
        raise _SetupOver

    def no_execute(*args, **kwargs):
        pytest.fail("run_campaign executed a trace past a replaced bootstrap_corpus")

    monkeypatch.setattr(campaign, "bootstrap_corpus", setup_over)
    monkeypatch.setattr(campaign, "execute", no_execute)
    with pytest.raises(_SetupOver):
        campaign.run_campaign(campaign.CampaignConfig(iterations=1), endpoint=None)
