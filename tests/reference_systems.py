"""Reference specifications for the fixture classes, encoded as
{lhs string: (has_one, set of term strings)}; comparison is order-free;
and the separable counts from their own recurrence."""

AV132_EXPECTED = {
    "C<132>": (True, {"plus[C+<132>, C<21>]", "minus[C-<132>, C<132>]"}),
    "C+<132>": (True, {"minus[C-<132>, C<132>]"}),
    "C<21>": (True, {"plus[C+<21>, C<21>]"}),
    "C-<132>": (True, {"plus[C+<132>, C<21>]"}),
    "C+<21>": (True, set()),
}

SEP_SUBCLASS_EXPECTED = {
    "C<2143>": (
        True,
        {
            "plus[C+<2143>(21), C<21>]",
            "plus[C+<21>, C<2143>(21)]",
            "plus[C+<21>, C<21>]",
            "minus[C-<2143>, C<2143>]",
        },
    ),
    "C+<2143>(21)": (False, {"minus[C-<2143>, C<2143>]"}),
    "C<21>": (True, {"plus[C+<21>, C<21>]"}),
    "C+<21>": (True, set()),
    "C<2143>(21)": (
        False,
        {
            "plus[C+<2143>(21), C<21>]",
            "plus[C+<21>, C<2143>(21)]",
            "minus[C-<2143>, C<2143>]",
        },
    ),
    "C-<2143>": (
        True,
        {
            "plus[C+<21>, C<21>]",
            "plus[C+<2143>(21), C<21>]",
            "plus[C+<21>, C<2143>(21)]",
        },
    ),
}

BIG_EXPECTED = {
    "C<1243,2341>": (
        True,
        {
            "plus[C+<12>, C<132,2341>(21)]",
            "plus[C+<1243,2341>(12), C<21>]",
            "plus[C+<12>, C<21>]",
            "minus[C-<123>, C<1243,2341>]",
            "3142[C<12>, C<12>, C<12>, C<132,2341>]",
        },
    ),
    "C+<12>": (True, {"minus[C-<12>, C<12>]"}),
    "C<132,2341>(21)": (
        False,
        {"plus[C+<132,2341>(21), C<21>]", "minus[C-<123,132>, C<132,2341>]"},
    ),
    "C+<1243,2341>(12)": (
        False,
        {
            "minus[C-<123>(12), C<1243,2341>(12)]",
            "minus[C-<12>, C<1243,2341>(12)]",
            "minus[C-<123>(12), C<12>]",
            "3142[C<12>, C<12>, C<12>, C<132,2341>]",
        },
    ),
    "C<21>": (True, {"plus[C+<21>, C<21>]"}),
    "C-<123>": (True, {"plus[C+<12>, C<12>]", "3142[C<12>, C<12>, C<12>, C<12>]"}),
    "C<12>": (True, {"minus[C-<12>, C<12>]"}),
    "C<132,2341>": (
        True,
        {"plus[C+<132,2341>, C<21>]", "minus[C-<123,132>, C<132,2341>]"},
    ),
    "C-<12>": (True, set()),
    "C+<132,2341>(21)": (False, {"minus[C-<123,132>, C<132,2341>]"}),
    "C-<123,132>": (True, {"plus[C+<12>, C<12,21>]"}),
    "C<1243,2341>(12)": (
        False,
        {
            "plus[C+<12>, C<132,2341>(21)]",
            "plus[C+<1243,2341>(12), C<21>]",
            "plus[C+<12>, C<21>]",
            "minus[C-<12>, C<1243,2341>(12)]",
            "minus[C-<123>(12), C<12>]",
            "minus[C-<123>(12), C<1243,2341>(12)]",
            "3142[C<12>, C<12>, C<12>, C<132,2341>]",
        },
    ),
    "C-<123>(12)": (
        False,
        {"plus[C+<12>, C<12>]", "3142[C<12>, C<12>, C<12>, C<12>]"},
    ),
    "C+<21>": (True, set()),
    "C+<132,2341>": (True, {"minus[C-<123,132>, C<132,2341>]"}),
    "C<12,21>": (True, set()),
}


def system_as_dict(system):
    return {
        str(lhs): (eq.has_one, {str(t) for t in eq.terms})
        for lhs, eq in system.equations.items()
    }


def separable_counts(order):
    """c_0..c_order of the separable permutations: c_n is the large Schröder
    number S_{n-1}, with (m+1) S_m = 3(2m-1) S_{m-1} - (m-2) S_{m-2}."""
    s = [1, 2]
    for m in range(2, order):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return [0] + s[:order]
