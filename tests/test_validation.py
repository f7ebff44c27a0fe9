import itertools
import json

import numpy as np
import pytest

import aqsim
from aqsim import (CorrespondenceCheck, MappingRecord, ReportRoleError,
                   SpeedupClass, ValidationReport)
from aqsim.bose_hubbard import hopping_matrix

from conftest import make_chain


def test_isomorphism_identity():
    h = make_chain(3)
    check = aqsim.check_isomorphism(h, h, MappingRecord((0, 1, 2)), tol=1e-12)
    assert check.metric == 0.0
    assert check.passed


def test_isomorphism_on_mapped_fixture(data_dir):
    h_fmo = aqsim.build_tight_binding(aqsim.load_network(data_dir / "fmo7.net"))
    h_wg = aqsim.build_tight_binding(aqsim.load_network(data_dir / "wg7.net"))
    rec = aqsim.load_mapping(data_dir / "fmo_to_wg.map")
    check = aqsim.check_isomorphism(h_wg, h_fmo, rec, tol=1e-12)
    assert check.passed and check.metric <= 1e-12
    # the walks agree after undoing the unit rescale in time
    t = 3.0
    pops_fmo = aqsim.evolve_unitary(h_fmo, 0, t).populations()
    pops_wg = aqsim.evolve_unitary(h_wg, rec.site_bijection[0],
                                   t / rec.unit_scale).populations()
    perm = np.asarray(rec.site_bijection)
    assert np.abs(pops_wg[perm] - pops_fmo).max() <= 1e-12


def test_isomorphism_detects_injected_defect():
    h = make_chain(3)
    bumped = np.array(h.matrix, copy=True)
    bumped[0, 1] += 1e-3
    bumped[1, 0] += 1e-3
    check = aqsim.check_isomorphism(aqsim.Hamiltonian(bumped), h,
                                    MappingRecord((0, 1, 2)), tol=1e-6)
    assert not check.passed
    assert check.metric == pytest.approx(1e-3, rel=1e-9)


def test_isomorphism_dim_mismatch():
    with pytest.raises(ValueError):
        aqsim.check_isomorphism(make_chain(2), make_chain(3),
                                MappingRecord((0, 1)), tol=1e-9)


def test_isomorphism_symmetric_under_record_inversion():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4))
    h_b = aqsim.Hamiltonian(0.5 * (a + a.T))
    rec = MappingRecord((2, 0, 3, 1), 1.0)
    h_a = aqsim.map_network(h_b, rec)
    bump = np.array(h_a.matrix, copy=True)
    bump[0, 0] += 5e-7
    h_a = aqsim.Hamiltonian(bump)
    fwd = aqsim.check_isomorphism(h_a, h_b, rec, tol=1e-6)
    rev = aqsim.check_isomorphism(h_b, h_a, rec.inverse(), tol=1e-6)
    assert fwd.passed == rev.passed
    assert abs(fwd.metric - rev.metric) <= 1e-14  # unit scale 1
    scaled = MappingRecord((2, 0, 3, 1), 0.25)
    h_s = aqsim.map_network(h_b, scaled)
    fwd = aqsim.check_isomorphism(h_s, h_b, scaled, tol=1e-9)
    rev = aqsim.check_isomorphism(h_b, h_s, scaled.inverse(), tol=1e-9 / 0.25)
    assert fwd.passed == rev.passed
    assert abs(fwd.metric - 0.25 * rev.metric) <= 1e-14 * 0.25


def test_approximation_identical_models():
    h = make_chain(4)
    check = aqsim.approximation_bound(h, h, tol=1e-12)
    assert check.metric == 0.0
    assert check.passed
    assert check.details["operator_norm_distance"] == 0.0


def nnn_pair():
    """Hubbard chain vs the same chain with a weak next-nearest hopping."""
    basis = aqsim.enumerate_basis(4, 3)
    params = aqsim.BoseHubbardParams.chain(4, 1.0, 2.0)
    reduced = aqsim.build_bh(params, basis)
    nnn = aqsim.BoseHubbardParams(4, 0.01, 0.0, ((0, 2), (1, 3)))
    full = reduced + hopping_matrix(nnn, basis)
    return aqsim.Hamiltonian(full.toarray()), aqsim.Hamiltonian(reduced.toarray()), basis


def test_approximation_bound_on_nnn_perturbation():
    h_full, h_reduced, _ = nnn_pair()
    check = aqsim.approximation_bound(h_full, h_reduced, tol=0.1, k=4)
    # independent dense residual computation over the same probe states
    dense_r = h_reduced.matrix
    dense_d = h_full.matrix - dense_r
    _, vecs = np.linalg.eigh(dense_r)
    want = max(np.linalg.norm(dense_d @ vecs[:, i])
               / np.linalg.norm(dense_r @ vecs[:, i]) for i in range(4))
    assert check.metric == pytest.approx(want, rel=1e-9)
    # perturbation strength J'/J = 0.01 sets the scale of the bound
    assert 1e-3 <= check.metric <= 1e-1
    assert check.passed
    tight = aqsim.approximation_bound(h_full, h_reduced, tol=check.metric / 2, k=4)
    assert not tight.passed


def test_approximation_bound_explicit_states_and_errors():
    h_full, h_reduced, basis = nnn_pair()
    psi = np.zeros(len(basis))
    psi[0] = 1.0
    check = aqsim.approximation_bound(h_full, h_reduced, state_set=[psi], tol=1.0)
    assert check.metric >= 0.0
    with pytest.raises(ValueError):
        aqsim.approximation_bound(h_full, h_reduced, state_set=[])
    with pytest.raises(ValueError):
        aqsim.approximation_bound(make_chain(2), make_chain(3))
    # no probe states at all: k below 1 is an error, not an empty probe set
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            aqsim.approximation_bound(h_full, h_reduced, k=k)


def test_classify_speedup_assignments():
    # the four canonical cases, including the unknown-scaling class 3
    assert aqsim.classify_speedup(True, False, False).class_id == 1
    assert aqsim.classify_speedup(True, True, True).class_id == 1
    assert aqsim.classify_speedup(False, False, True).class_id == 2
    assert aqsim.classify_speedup(False, False, False).class_id == 3
    assert aqsim.classify_speedup(False, True, True).class_id == 4
    assert aqsim.classify_speedup(False, True, False).class_id == 4


def test_classify_speedup_total_and_unique():
    for answers in itertools.product((False, True), repeat=3):
        cls = aqsim.classify_speedup(*answers)
        assert cls.class_id in (1, 2, 3, 4)
        assert cls.justification


def passing_check():
    h = make_chain(2)
    return aqsim.check_isomorphism(h, h, MappingRecord((0, 1)), tol=1e-12)


def test_report_roles():
    check = passing_check()
    speedup = aqsim.classify_speedup(False, False, False)
    report = ValidationReport("simulation", [check], speedup, {"scope": "test"})
    assert report.internally_valid and not report.externally_valid
    with pytest.raises(ReportRoleError):
        ValidationReport("emulation", [check], speedup)
    with pytest.raises(ReportRoleError):
        ValidationReport("simulation", [check], speedup, external_checks=[check])
    with pytest.raises(ReportRoleError):
        ValidationReport("simulation", [], speedup)
    emu = ValidationReport("emulation", [check], speedup,
                           external_checks=[check])
    assert emu.internally_valid and emu.externally_valid


def test_failed_checks_keep_report_but_mark_invalid():
    failing = CorrespondenceCheck("isomorphism", 1.0, 0.5, False, {})
    speedup = SpeedupClass(4, "classical is fine")
    report = ValidationReport("simulation", [failing], speedup)
    assert not report.internally_valid


def test_check_invariant_consistency():
    with pytest.raises(ValueError):
        CorrespondenceCheck("isomorphism", 1.0, 0.5, True, {})
    with pytest.raises(ValueError):
        CorrespondenceCheck("other", 0.0, 0.5, True, {})
    with pytest.raises(ValueError):
        SpeedupClass(5, "no such class")


def test_report_json_round_trip():
    check = passing_check()
    speedup = aqsim.classify_speedup(False, False, True)
    report = ValidationReport("emulation", [check], speedup,
                              {"note": "fixture"}, external_checks=[check])
    text = aqsim.report_to_json(report)
    back = aqsim.report_from_json(text)
    assert back == report
    assert aqsim.report_to_json(back) == text
    with pytest.raises(ValueError):
        aqsim.report_from_json('{"schema_version": 99}')


def _pinned_report(data_dir, change):
    data = json.loads((data_dir / "wg7_fmo7_report.json").read_text())
    change(data)
    return json.dumps(data)


@pytest.mark.parametrize("change, message", [
    (None, "report must be a JSON object, got list"),
    (lambda d: d.pop("role"), "report has no field 'role'"),
    (lambda d: d.pop("schema_version"), "report has no field 'schema_version'"),
    (lambda d: d["internal_checks"][0].pop("kind"),
     "report internal_checks[0] has no field 'kind'"),
    (lambda d: d["internal_checks"][0].update(metric="0.0"),
     "report internal_checks[0] field 'metric' must be int or float, got str"),
    (lambda d: d["internal_checks"][0].update(metric=False),
     "report internal_checks[0] field 'metric' must be int or float, got bool"),
    (lambda d: d.update(internal_checks=[[]]),
     "report internal_checks[0] must be a JSON object, got list"),
    (lambda d: d.update(external_checks={}),
     "report field 'external_checks' must be list, got dict"),
    (lambda d: d["speedup"].pop("justification"),
     "report speedup has no field 'justification'"),
], ids=["list", "no-role", "no-version", "check-without-kind", "string-metric",
        "bool-metric", "check-not-object", "checks-not-list", "no-justification"])
def test_report_from_json_names_the_malformed_field(data_dir, change, message):
    # outside input either parses or raises one ValueError naming the field;
    # these used to raise AttributeError, KeyError or TypeError
    text = "[]" if change is None else _pinned_report(data_dir, change)
    with pytest.raises(ValueError) as info:
        aqsim.report_from_json(text)
    assert type(info.value) is ValueError and str(info.value) == message


def test_report_from_json_reads_the_pinned_cli_report(data_dir):
    report = aqsim.report_from_json((data_dir / "wg7_fmo7_report.json").read_text())
    assert report.role == "simulation" and report.internally_valid
