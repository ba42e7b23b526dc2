"""Known defects as strict expected failures.

Each test asserts the correct behaviour of one claim that the code does not
meet yet, and its marker's reason is the CHANGES.md FOUND line of that
defect.  A change that mends one makes its test pass, which strict mode
reports as a failure: the mend then removes the marker, so the test stays
as a plain one, and records itself as MENDED.
"""

import pytest

from braidforge.cli import main
from braidforge.data import golden_json
from braidforge.factorization import COMPOSITE_TAG
from braidforge.regeneration import hv_diff, hv_paper_factors
from braidforge.verify import (artin_census, check_full_twist,
                               check_refinement)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: `forge verify` (`verify.check_full_twist`) checks only the degree "
    "and the product, so a `branch` factor with core s1 s1 passes with exit "
    "0 although it is no half-twist"))
def test_verify_refuses_a_branch_factor_that_is_no_half_twist(tmp_path):
    path = tmp_path / "square.json"
    path.write_text('{"format":2,"strands":2,"factors":'
                    '[{"core":"s1 s1","exp":1,"tag":"branch"}]}')
    assert main(["verify", str(path)]) == 1


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: `regeneration.regenerate` keeps the tags `branch`/`node` on "
    "cabled factors whose cores are ribbon crossings, not half-twists: of "
    "the 513 factors of phi0 only the 27 pair twists pass "
    "`Factor.is_half_twist`"))
def test_every_regenerated_singular_factor_is_a_half_twist(regen_fz):
    assert all(f.is_half_twist() for f in regen_fz
               if f.tag != COMPOSITE_TAG)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: `regeneration.regenerate` (via `cable_factor`) keeps the tags "
    "`branch`/`node` and exponents 1/2 on cabled factors whose twists are "
    "ribbon crossings (four letters per crossing), not half-twists, so no "
    "factor of `phi0.json` passes `Factor.is_half_twist` and `forge "
    "relations phi0.json` can emit no relation at all (it now stops at "
    "factor 1); seen by running `forge relations` on the regenerated "
    "certificate."))
def test_the_regenerated_census_is_the_papers(regen_fz):
    """ROADMAP item 1's table: 54 branch points, 1080 nodes and 216 cusps
    of the doubled curve, each factor a half-twist power."""
    assert artin_census(regen_fz)["by_exponent"] == {
        1: 54, 2: 1080, 3: 216, 4: 0, "composite": 0}


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: the engine's regenerated vertex block (30 cabled frame letters "
    "plus 3 pair twists) is not the paper's printed H^_V (54 factors of "
    "degrees 1, 2, 3): `regen run --audit` prints `factor count: engine 33, "
    "printed 54`"))
@pytest.mark.parametrize("name", ["hv1", "hv4", "hv7"])
def test_the_worked_vertex_blocks_are_the_printed_ones(regen_fz, name):
    obj = golden_json(f"regen/{name}.json")
    assert hv_diff(regen_fz, obj["vertex"], hv_paper_factors(obj)) == []


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: `forge relations` on the regenerated certificate stops at "
    "factor 1 'D4:Z2[3,4]', which is not a half twist, because "
    "`regenerate` keeps singularity tags on cabled factors"))
def test_relations_of_the_regenerated_certificate(tmp_path, regen_fz):
    path = tmp_path / "B.json"
    path.write_text(regen_fz.dumps())
    assert main(["relations", str(path), "--out",
                 str(tmp_path / "rels.json")]) == 0


def test_the_stage_a_splice_is_a_factorization_of_delta2(stage_a_splice):
    """The splice itself is right, so the test below pins the checker."""
    assert len(stage_a_splice) == 1161 and stage_a_splice.degree == 2862
    assert check_full_twist(stage_a_splice).passed


def test_check_refinement_passes_the_stage_a_splice(phi8_fz, stage_a_splice):
    """Mended: transports that cancel at the join with cable(t) are read
    as h . cable(t) all the same."""
    assert check_refinement(phi8_fz, stage_a_splice).passed
