"""The package's public surface: export lists and stack-only inputs."""

import importlib
import pkgutil

import numpy as np
import pytest

import gausscensus
from gausscensus import criteria, measures, states

MODULES = sorted(info.name for info in pkgutil.iter_modules(gausscensus.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name) -> None:
    module = importlib.import_module(f"gausscensus.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from gausscensus.{name} import *", namespace)
    if hasattr(module, "__all__"):
        assert set(namespace) - {"__builtins__"} == set(exported)


ONE_MATRIX = 2.0 * np.eye(4)

# Each entry point that takes a stack of (4, 4) matrices.
STACKED = {
    "states.is_physical": states.is_physical,
    "states.to_standard_form_one": states.to_standard_form_one,
    "states.symplectic_eigenvalues": states.symplectic_eigenvalues,
    "states.entropy": states.entropy,
    "criteria.is_separable_ppt": criteria.is_separable_ppt,
    "criteria.is_classical": criteria.is_classical,
    "criteria.classify": criteria.classify,
    "measures.discretize": lambda M: measures.discretize(M, measures.regular_grid(3)),
}


@pytest.mark.parametrize("name", STACKED)
def test_entry_point_refuses_one_matrix(name) -> None:
    with pytest.raises(ValueError, match=r"expected a stack of shape \(S, 4, 4\)"):
        STACKED[name](ONE_MATRIX)


@pytest.mark.parametrize("name", STACKED)
def test_entry_point_refuses_a_stack_of_the_wrong_shape(name) -> None:
    with pytest.raises(ValueError, match=r"got shape \(1, 3, 3\)"):
        STACKED[name](np.eye(3)[None])


def test_form_two_refuses_scalar_numbers() -> None:
    f1 = states.StandardFormI(n=2.0, m=2.0, c=0.5, cp=0.1)
    with pytest.raises(ValueError, match=r"expected a stack of shape \(S\)"):
        states.to_standard_form_two(f1)


def test_one_mode_blocks_are_stacks_too() -> None:
    with pytest.raises(ValueError, match=r"\(S, 4, 4\) or \(S, 2, 2\)"):
        states.entropy(np.eye(2))
    assert states.entropy(2.0 * np.eye(2)[None]).shape == (1,)
    # The kernels are two-mode only.
    with pytest.raises(ValueError, match=r"shape \(S, 4, 4\), got shape \(1, 2, 2\)"):
        measures.discretize(2.0 * np.eye(2)[None], measures.regular_grid(3)[None])


def test_discretize_needs_one_grid_per_matrix() -> None:
    M = np.stack([ONE_MATRIX, ONE_MATRIX])
    with pytest.raises(ValueError, match="one grid per matrix"):
        measures.discretize(M, measures.regular_grid(3)[None])
