import quotlab

DELETED = {
    "Rational", "normalize", "compare", "canonical_pair",
    "divide_by_linear", "pair_difference", "slope_difference_divisor",
    "depends_on_x", "PlanarPoint", "bisector_y_intercept", "rich_points",
    "energy_restricted", "intersection_points", "PointMultiplicity",
    "ChainReport", "ScanReport", "RichPointReport", "IncidenceReport",
    "slice_difference", "InterceptSet",
}


def test_every_export_resolves():
    for name in quotlab.__all__:
        assert getattr(quotlab, name) is not None, name


def test_deleted_names_are_not_exported():
    assert not DELETED & set(quotlab.__all__)
    assert not [name for name in DELETED if hasattr(quotlab, name)]
