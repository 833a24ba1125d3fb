import numpy as np
import pytest

from finslerlab.zoo import build


@pytest.fixture(scope="session")
def euclid3():
    return build("euclidean", 3)


@pytest.fixture(scope="session")
def euclid2():
    return build("euclidean", 2)


@pytest.fixture(scope="session")
def riem2():
    return build("riemannian", 2, {"a_diag": [1.0, 4.0]})


@pytest.fixture(scope="session")
def riem3():
    return build("riemannian", 3, {"a_diag": [1.0, 4.0, 1.0]})


@pytest.fixture(scope="session")
def quartic3():
    return build("minkowski_quartic", 3)


@pytest.fixture(scope="session")
def randers3():
    return build("randers", 3)


@pytest.fixture(scope="session")
def funk3():
    return build("funk_ball", 3)


@pytest.fixture(scope="session")
def zoo_models(euclid3, riem3, quartic3, randers3, funk3):
    return [euclid3, riem3, quartic3, randers3, funk3]


def random_flag(model, rng):
    """A random admissible flag point for the model."""
    from finslerlab.core import FlagPoint

    return FlagPoint(model.sample_x(rng), model.sample_y(rng))


def chart_embed(chart, u):
    """The flag point (x, y(u)) of chart coordinate u on the fibre over x."""
    from finslerlab.core import FlagPoint
    from finslerlab.indicatrix import fibre_jets

    return FlagPoint(chart.x, fibre_jets(chart.model, chart, u, {"g": 0}).y_u[0, :, 0])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def core_counts(monkeypatch):
    """Counts the points of TensorJets expansions (the walks of F) and of
    the g and spray assemblies they run."""
    from functools import cached_property

    from finslerlab import core

    counts = {"expansions": 0, "g": 0, "spray": 0}
    init = core.TensorJets.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["expansions"] += len(self.y)  # one walk of F per point

    monkeypatch.setattr(core.TensorJets, "__init__", counted_init)
    for name in ("g", "spray"):
        assemble = vars(core.TensorJets)[name].func

        def counted(self, assemble=assemble, name=name):
            counts[name] += len(self.y)  # one assembly per point of the batch
            return assemble(self)

        prop = cached_property(counted)
        prop.__set_name__(core.TensorJets, name)
        monkeypatch.setattr(core.TensorJets, name, prop)
    return counts
