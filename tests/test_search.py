import json
from fractions import Fraction

import pytest

from heightbounds.heights import weil_log_height
from heightbounds.polys import parse_polynomial
from heightbounds.search import (CursorError, SearchError, SearchSpace,
                                 enumerate_space, equality_hunt,
                                 min_height_survey)

from conftest import HALF_LN_PHI, alg

SLACK = Fraction(1, 10**38)


class TestSpace:
    def test_counts(self):
        assert SearchSpace(2, 2, 1).degree_count(2) == 9
        assert SearchSpace(1, 1, 2).degree_count(1) == 5
        assert SearchSpace(1, 2, 2).total_count() == 5 + 25

    def test_degree_zero_rejected(self):
        with pytest.raises(SearchError):
            SearchSpace(0, 2, 1)
        with pytest.raises(SearchError):
            SearchSpace(1, 2, 0)

    def test_unknown_predicate(self):
        with pytest.raises(SearchError):
            SearchSpace(1, 2, 1, predicates=("weird",))

    @pytest.mark.parametrize("field, value", [
        ("monic", "false"), ("monic", 0), ("degrees", [1, 2.7]), ("degrees", [True, 2]),
        ("coeff_bound", True), ("coeff_bound", 1.0), ("coeff_bound", "1")])
    def test_document_fields_are_typed(self, field, value):
        doc = SearchSpace(1, 2, 1).to_json_dict()
        assert SearchSpace.from_json_dict(doc).space_hash() == SearchSpace(1, 2, 1).space_hash()
        doc[field] = value
        with pytest.raises(SearchError, match="bad search space document"):
            SearchSpace.from_json_dict(doc)

    def test_enumeration_deterministic_and_complete(self):
        sp = SearchSpace(1, 2, 1)
        items = list(enumerate_space(sp))
        assert len(items) == sp.total_count()
        assert items == list(enumerate_space(sp))
        polys = {f.coeffs for _, _, f in items}
        assert len(polys) == len(items)
        assert all(f.is_monic() for _, _, f in items)

    def test_nonmonic_space(self):
        sp = SearchSpace(1, 1, 2, monic=False)
        assert sp.degree_count(1) == 2 * 5
        leads = {f.lead for _, _, f in enumerate_space(sp)}
        assert leads == {1, 2}

    def test_hash_changes_with_space(self):
        a = SearchSpace(1, 2, 2)
        b = SearchSpace(1, 2, 3)
        assert a.space_hash() != b.space_hash()
        assert a.space_hash() == SearchSpace.from_json_dict(a.to_json_dict()).space_hash()


class TestSurvey:
    def test_quadratic_space_minimum(self):
        # 25-polynomial exhaustive oracle: min is (1/2) log phi at x^2-x-1
        sp = SearchSpace(1, 2, 2)
        res = min_height_survey(sp, bits=64)
        assert res.minimum.minpoly in (parse_polynomial("x^2-x-1"),
                                       parse_polynomial("x^2+x-1"))
        lo, hi = res.minimum.logh.lo, res.minimum.logh.hi
        assert lo - SLACK <= HALF_LN_PHI <= hi + SLACK
        ties = {r.minpoly.coeffs for r in res.tie_class}
        assert ties == {(-1, -1, 1), (-1, 1, 1)}
        assert res.strict

    def test_floor_never_undershot(self):
        sp = SearchSpace(1, 3, 3)
        res = min_height_survey(sp, bits=64)
        floor = HALF_LN_PHI - Fraction(1, 10**9)
        assert all(r.logh.hi >= floor for r in res.records)

    def test_counting_identity(self):
        sp = SearchSpace(1, 3, 2)
        res = min_height_survey(sp, bits=64)
        s = res.stats
        assert s["candidates"] == sp.total_count()
        assert s["parts"] == (sum(s["rejections"].values()) + s["duplicates"]
                              + len(res.records))

    def test_cyclotomics_without_totally_real_filter(self):
        sp = SearchSpace(2, 2, 1, predicates=("algebraic-integer", "exclude-trivial"))
        res = min_height_survey(sp, bits=64)
        zero_records = [r for r in res.records if r.logh.hi == 0]
        assert parse_polynomial("x^2+x+1") in [r.minpoly for r in zero_records]

    def test_parallel_determinism(self, tmp_path):
        sp = SearchSpace(1, 3, 2)
        p1 = tmp_path / "r1.jsonl"
        p4 = tmp_path / "r4.jsonl"
        min_height_survey(sp, bits=64, jobs=1, records_path=str(p1),
                          cursor_path=str(tmp_path / "c1.json"))
        min_height_survey(sp, bits=64, jobs=4, records_path=str(p4),
                          cursor_path=str(tmp_path / "c4.json"))
        assert p1.read_bytes() == p4.read_bytes()

    def test_workers_bounded_by_chunks(self, tmp_path, recording_pool):
        # --jobs 100000 used to ask for 100,000 worker processes
        sp = SearchSpace(1, 3, 2)
        blobs = {}
        for jobs in (1, 100000):
            rec, cur = tmp_path / ("r%d.jsonl" % jobs), tmp_path / ("c%d.json" % jobs)
            min_height_survey(sp, bits=64, jobs=jobs, records_path=str(rec),
                              cursor_path=str(cur))
            blobs[jobs] = (rec.read_bytes(), cur.read_bytes())
        assert recording_pool == [3]  # one chunk per degree
        assert blobs[1] == blobs[100000]


class TestPartHeights:
    def test_each_part_measured_once(self, monkeypatch):
        import heightbounds.heights as heights_mod
        measured = []
        measure = heights_mod._measure_of_parts

        def counting(f, parts, eps):
            measured.append(f.coeffs)
            return measure(f, parts, eps)

        monkeypatch.setattr(heights_mod, "_measure_of_parts", counting)
        heights_mod._minpoly_log_height.cache_clear()
        # one chunk per degree: reducible cubics meet parts of earlier chunks
        res = min_height_survey(SearchSpace(1, 3, 2), bits=64)
        assert sorted(measured) == sorted(r.minpoly.coeffs for r in res.records)

    def test_cursor_and_stats_identical_across_jobs(self, tmp_path):
        sp = SearchSpace(1, 3, 2)
        runs = {}
        for jobs in (1, 4):
            cursor = tmp_path / ("c%d.json" % jobs)
            res = min_height_survey(sp, bits=64, jobs=jobs,
                                    records_path=str(tmp_path / ("r%d.jsonl" % jobs)),
                                    cursor_path=str(cursor))
            runs[jobs] = (cursor.read_bytes(), res.stats)
        assert runs[1] == runs[4]


class TestCheckpoint:
    def test_resume_identical(self, tmp_path):
        sp = SearchSpace(1, 2, 3)
        full = tmp_path / "full.jsonl"
        min_height_survey(sp, bits=64, records_path=str(full),
                          cursor_path=str(tmp_path / "cf.json"))
        # simulate an interrupted run: process only the first degree, then resume
        part = tmp_path / "part.jsonl"
        cur = tmp_path / "cp.json"
        partial_space = SearchSpace(1, 1, 3)
        res1 = min_height_survey(partial_space, bits=64)
        # fabricate the cursor exactly as a cut-off run would leave it
        from heightbounds.search import _atomic_write, _cursor_blob, _records_blob
        _atomic_write(str(part), _records_blob(res1.records))
        _atomic_write(str(cur), _cursor_blob(sp, res1.stats, (1, sp.degree_count(1))))
        min_height_survey(sp, bits=64, records_path=str(part), cursor_path=str(cur))
        assert part.read_bytes() == full.read_bytes()

    def test_corrupted_cursor(self, tmp_path):
        sp = SearchSpace(1, 2, 1)
        cur = tmp_path / "c.json"
        cur.write_text("{not json")
        with pytest.raises(CursorError):
            min_height_survey(sp, bits=64, records_path=str(tmp_path / "r.jsonl"),
                              cursor_path=str(cur))

    def test_finished_cursor_is_accepted(self, tmp_path):
        # the end position has index degree_count(degree_max)
        sp = SearchSpace(1, 2, 1)
        r, cur = tmp_path / "r.jsonl", tmp_path / "c.json"
        min_height_survey(sp, bits=64, records_path=str(r), cursor_path=str(cur))
        blobs = r.read_bytes(), cur.read_bytes()
        assert json.loads(blobs[1])["position"] == [2, sp.degree_count(2)]
        again = min_height_survey(sp, bits=64, records_path=str(r), cursor_path=str(cur))
        assert (r.read_bytes(), cur.read_bytes()) == blobs
        assert again.stats["candidates"] == sp.total_count()

    def test_malformed_cursor_or_record_file(self, malformed_survey_files):
        sp, records, cursor, needle = malformed_survey_files
        with pytest.raises(CursorError, match=needle):
            min_height_survey(sp, bits=64, records_path=records, cursor_path=cursor)

    def test_space_hash_mismatch(self, tmp_path):
        sp1, sp2 = SearchSpace(1, 2, 1), SearchSpace(1, 2, 2)
        cur = tmp_path / "c.json"
        r = tmp_path / "r.jsonl"
        min_height_survey(sp1, bits=64, records_path=str(r), cursor_path=str(cur))
        with pytest.raises(CursorError):
            min_height_survey(sp2, bits=64, records_path=str(r), cursor_path=str(cur))

    def test_record_schema(self, tmp_path):
        sp = SearchSpace(2, 2, 1)
        r = tmp_path / "r.jsonl"
        min_height_survey(sp, bits=64, records_path=str(r),
                          cursor_path=str(tmp_path / "c.json"))
        lines = [json.loads(line) for line in r.read_text().splitlines()]
        assert lines
        for doc in lines:
            assert set(doc) == {"minpoly", "deg", "logh", "flags"}
            assert set(doc["logh"]) == {"lo", "hi"}


class TestEqualityHunt:
    def test_r1_quadratics(self):
        sp = SearchSpace(2, 2, 2)
        found = equality_hunt(1, sp, bits=96)
        polys = {inst.alphas[0].minpoly.coeffs for inst, _ in found}
        assert (-1, -1, 1) in polys and (-1, 1, 1) in polys
        for inst, verdict in found:
            assert verdict.status == "equality-candidate"

    def test_r1_no_equality_without_quadratics(self):
        # degree-1 integers other than the units all have height >= log 2
        sp = SearchSpace(1, 1, 4)
        found = equality_hunt(1, sp, bits=96)
        assert found == []

    def test_r2_unit_seeded(self):
        sp = SearchSpace(2, 2, 1)
        found = equality_hunt(2, sp, bits=96)
        assert found
        # the classic pair (1, phi - 1) with N = phi appears
        hits = [inst for inst, _ in found
                if inst.alphas[0].is_rational()
                and inst.alphas[0].as_fraction() == 1
                and inst.alphas[1].minpoly.coeffs == (-1, 1, 1)]
        assert hits

    def test_reverification_at_doubled_precision(self):
        from heightbounds.verify import verify_corollary
        sp = SearchSpace(2, 2, 1)
        for inst, verdict in equality_hunt(1, sp, bits=96):
            again = verify_corollary(inst, 192)
            assert again.status == "equality-candidate"

    def test_invalid_r(self):
        with pytest.raises(SearchError):
            equality_hunt(3, SearchSpace(1, 1, 1))


class TestRecordHeights:
    def test_cyclotomic_exact_zero(self):
        iv = weil_log_height(alg("x^2+x+1", 0), 64).log_height
        assert iv.lo == 0 and iv.hi == 0

    def test_width(self):
        iv = weil_log_height(alg("x^3-x-1", 0), 64).log_height
        assert iv.width <= Fraction(1, 1 << 60)
