"""The benchmark tracer's patch sites must name live package attributes.

perfbench/tracer.py wraps each layer by rebinding ``(module, attribute)``
pairs.  A rename in the package would make the traced benchmark fail (or, for
a second import site, silently miss calls); this guards against that.
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
