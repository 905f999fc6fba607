import pytest

import permspec as ps


def P(s):
    return ps.perm(s)


@pytest.fixture(scope="session")
def no_simples():
    return ps.simple_set([])


@pytest.fixture(scope="session")
def av132_basis():
    return ps.basis_of([P("132")])


@pytest.fixture(scope="session")
def av132_spec(av132_basis, no_simples):
    return ps.specification(av132_basis, no_simples)


@pytest.fixture(scope="session")
def sep_subclass_basis():
    return ps.basis_of([P("2413"), P("3142"), P("2143")])


@pytest.fixture(scope="session")
def sep_subclass_spec(sep_subclass_basis, no_simples):
    return ps.specification(sep_subclass_basis, no_simples)


@pytest.fixture(scope="session")
def big_basis():
    return ps.basis_of([P(x) for x in ("1243", "2341", "2413", "41352", "531642")])


@pytest.fixture(scope="session")
def big_simples():
    return ps.simple_set([P("3142")])


@pytest.fixture(scope="session")
def big_spec(big_basis, big_simples):
    return ps.specification(big_basis, big_simples)


@pytest.fixture(scope="session")
def five_root_spec():
    basis = ps.basis_of([P(x) for x in ("1243", "2341", "2413", "531642")])
    return ps.specification(basis, ps.simple_set([P("3142"), P("41352")]))
