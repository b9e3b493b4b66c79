"""Unit tests for the lazy SWF trace parser."""

import itertools
from pathlib import Path

import pytest

from repro.workload.swf import (
    SWF_FIELDS,
    count_swf_jobs,
    parse_swf,
    read_swf,
    read_swf_columns,
)

MINI = Path(__file__).parent / "data" / "mini.swf"


class TestParsing:
    def test_fixture_parses_all_jobs(self):
        jobs = list(read_swf(str(MINI)))
        assert [j.job_number for j in jobs] == [1, 2, 3, 4, 5]

    def test_comments_and_blank_lines_skipped(self):
        text = MINI.read_text()
        assert text.count(";") > 1  # the fixture really exercises comments
        assert list(parse_swf(text.splitlines())) == list(read_swf(str(MINI)))

    def test_field_values(self):
        job = next(read_swf(str(MINI)))
        assert job.submit_time == 0.0
        assert job.wait_time == 2.0
        assert job.run_time == 10.0
        assert job.allocated_procs == 4
        assert job.requested_procs == 4
        assert job.user_id == 1

    def test_float_fields_are_floats(self):
        job = next(read_swf(str(MINI)))
        assert isinstance(job.submit_time, float)
        assert isinstance(job.run_time, float)
        assert isinstance(job.allocated_procs, int)

    def test_truncated_record_padded_with_sentinel(self):
        last = list(read_swf(str(MINI)))[-1]
        assert last.job_number == 5
        # Fields beyond the truncation point carry the SWF unknown value.
        assert last.queue == -1 and last.partition == -1 and last.think_time == -1.0

    def test_procs_falls_back_to_allocated(self):
        jobs = {j.job_number: j for j in read_swf(str(MINI))}
        assert jobs[1].procs == 4  # requested_procs present
        assert jobs[3].procs == 8  # requested_procs == -1 -> allocated_procs

    def test_malformed_field_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            list(parse_swf(["; header", "1 0 0 bogus 4"]))

    def test_field_order_matches_standard(self):
        assert len(SWF_FIELDS) == 18
        assert SWF_FIELDS[0] == "job_number"
        assert SWF_FIELDS[1] == "submit_time"
        assert SWF_FIELDS[3] == "run_time"


class TestLaziness:
    def test_parse_swf_is_a_generator(self):
        """One record at a time: a huge input is never materialised."""

        def endless_lines():
            n = 0
            while True:
                n += 1
                yield f"{n} {n} 0 5 2 -1 -1 2 10 -1 1 1 1 1 1 -1 -1 -1"

        first_three = list(itertools.islice(parse_swf(endless_lines()), 3))
        assert [j.job_number for j in first_three] == [1, 2, 3]

    def test_count_swf_jobs(self):
        assert count_swf_jobs(str(MINI)) == 5


class TestColumns:
    """``read_swf_columns``: what replay reads, without a job object per line."""

    def test_columns_agree_with_the_job_records(self):
        jobs = list(read_swf(str(MINI)))
        submit, run, procs = read_swf_columns(str(MINI))
        assert list(submit) == [j.submit_time for j in jobs]
        assert list(run) == [j.run_time for j in jobs]
        assert list(procs) == [j.procs for j in jobs] == [4, 1, 8, 2, 16]
        assert (submit.typecode, run.typecode, procs.typecode) == ("d", "d", "i")

    @pytest.mark.parametrize("max_jobs, kept", [(1, 1), (3, 3), (5, 5), (9, 5)])
    def test_max_jobs_caps_the_columns(self, max_jobs, kept):
        submit, run, procs = read_swf_columns(str(MINI), max_jobs)
        assert len(submit) == len(run) == len(procs) == kept

    def test_malformed_line_raises_the_parser_error(self, tmp_path):
        bad = tmp_path / "bad.swf"
        # The bad token sits in a field replay does not use: every field is checked.
        bad.write_text("; header\n1 0 0 5 4 -1 -1 4\n2 3 0 5 4 -1 bogus 4\n")
        with pytest.raises(ValueError) as from_jobs:
            list(read_swf(str(bad)))
        with pytest.raises(ValueError) as from_columns:
            read_swf_columns(str(bad))
        assert str(from_columns.value) == str(from_jobs.value)
        assert "line 3" in str(from_columns.value)

    def test_lines_after_max_jobs_are_not_read(self, tmp_path):
        bad = tmp_path / "bad.swf"
        bad.write_text("1 0 0 5 4 -1 -1 4\n2 3 0 bogus 4\n")
        submit, _, _ = read_swf_columns(str(bad), max_jobs=1)
        assert list(submit) == [0.0]
