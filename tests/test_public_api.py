"""Public-API surface tests.

Guards the ``repro`` namespaces: every module must import, everything
advertised in an ``__all__`` must exist, and the top level's exports
must carry documentation — the contract a downstream user relies on.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


class TestTopLevelNamespace:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_public_objects_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{name} lacks a docstring"

    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_headline_classes_present(self):
        for name in ("EnergyManager", "LEOEstimator",
                     "HierarchicalBayesianModel", "EnergyMinimizer",
                     "Machine", "ConfigurationSpace",
                     "ApplicationProfile", "RuntimeController"):
            assert name in repro.__all__, name

    def test_no_private_leaks(self):
        assert not any(name.startswith("_") for name in repro.__all__
                       if name != "__version__")


#: Every module under ``repro``, so a deletion that leaves a dangling
#: import or ``__all__`` entry anywhere fails here.
ALL_MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))


class TestSubpackageNamespaces:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_estimator_registry_matches_exports(self):
        from repro.estimators import available_estimators
        names = available_estimators()
        assert set(names) == {"knn", "leo", "leo-transfer", "offline",
                              "online"}


class TestQuickstartContract:
    """The README quickstart's exact call signatures must keep working."""

    def test_signatures(self):
        from repro import EnergyManager, get_benchmark
        sig = inspect.signature(EnergyManager.optimize)
        assert list(sig.parameters)[:3] == ["self", "profile",
                                            "utilization"]
        assert "deadline" in sig.parameters
        assert "estimate" in sig.parameters
        assert callable(get_benchmark)

    def test_estimator_name_argument(self):
        from repro import EnergyManager
        sig = inspect.signature(EnergyManager.__init__)
        assert sig.parameters["estimator"].default == "leo"
