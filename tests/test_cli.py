import json
import math
import re

import pytest

from streamsched.cli import main
from streamsched.model import (
    CapacityInterval,
    MachineProfile,
    dump_profiles,
    flat_profile,
)
from streamsched.sketch import sketch_stream

# written while plans still carried the planned slot starts; the jobs are
# OLDER_JOBS on OLDER_PROFILES at eps=1, alpha0=0.5
OLDER_PLAN = (
    '{"V": 1445.0962962962963, "alpha0": 0.5, "counts": [[0, 1, 1, 0, 1], '
    '[1, 1, 0, 1, 0]], "delta": 0.004166666666666667, "eps": 1.0, "groups": '
    '[{"n_k": 1, "rp": 3}, {"n_k": 2, "rp": 7}, {"n_k": 1, "rp": 12}, '
    '{"n_k": 1, "rp": 18}, {"n_k": 1, "rp": 916}], "n": 8, "sigma_S_prime": '
    '1016.0833333333334, "small_reservation": 37.5, "starts": [[37.5, 37.5, '
    '44.5, 56.5, 56.5], [0.0, 3.333333333333333, 13.125, 13.125, 35.625]], '
    '"tau": 0.03333333333333333}'
)
OLDER_JOBS = [3, 7, 7, 12, 1, 18, 1, 900]
OLDER_PROFILES = (
    MachineProfile(
        1, (CapacityInterval(0.0, 2.5, 0.6), CapacityInterval(2.5, math.inf, 1.0))
    ),
    MachineProfile(
        2,
        (
            CapacityInterval(0.0, 4.0, 0.9),
            CapacityInterval(4.0, 7.0, 0.5),
            CapacityInterval(7.0, math.inf, 0.8),
        ),
    ),
)


# the jobs file of `gen --jobs 30 --max-p 50 --seed 1`
GEN_30 = [
    9, 37, 49, 5, 17, 8, 32, 49, 29, 31, 42, 25, 14, 7, 32,
    2, 25, 28, 39, 49, 50, 1, 45, 29, 18, 47, 15, 38, 7, 21,
]


def write_jobs(path, ps):
    path.write_text("".join(f"{p}\n" for p in ps))


def sketch_and_plan(tmp_path, jobs, profile, alpha0="1.0"):
    """`sketch` at eps=1 then `approximate`; returns the plan file."""
    sketch_out = tmp_path / "sketch.json"
    plan_out = tmp_path / "plan.json"
    assert main(
        [
            "sketch", "--jobs", str(jobs), "--eps", "1.0",
            "--alpha0", alpha0, "--out", str(sketch_out),
        ]
    ) == 0
    assert main(
        [
            "approximate", "--sketch", str(sketch_out),
            "--profile", str(profile), "--out", str(plan_out),
        ]
    ) == 0
    return plan_out


@pytest.fixture
def reference_files(tmp_path):
    jobs = tmp_path / "jobs.txt"
    profile = tmp_path / "profile.json"
    write_jobs(jobs, [1, 1, 2])
    dump_profiles((flat_profile(1.0, 1),), str(profile))
    return jobs, profile


class TestGen:
    def test_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            jobs = tmp_path / f"jobs_{tag}.txt"
            prof = tmp_path / f"prof_{tag}.json"
            rc = main(
                [
                    "gen", "--jobs", "50", "--machines", "2", "--max-p", "40",
                    "--alpha0", "0.5", "--intervals", "3", "--seed", "7",
                    "--jobs-out", str(jobs), "--profile-out", str(prof),
                ]
            )
            assert rc == 0
            outs.append((jobs.read_bytes(), prof.read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, tmp_path):
        texts = []
        for seed in ("1", "2"):
            jobs = tmp_path / f"jobs_{seed}.txt"
            prof = tmp_path / f"prof_{seed}.json"
            main(
                [
                    "gen", "--jobs", "50", "--seed", seed,
                    "--jobs-out", str(jobs), "--profile-out", str(prof),
                ]
            )
            texts.append(jobs.read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--jobs", "0"], "jobs, machines, max-p and intervals must be >= 1"),
            (["--jobs", "5", "--alpha0", "0"], "alpha0 must be in (0, 1]"),
        ],
        ids=["no-jobs", "zero-alpha0"],
    )
    def test_bad_parameters_rejected_before_writing(
        self, tmp_path, capsys, args, message
    ):
        jobs = tmp_path / "jobs.txt"
        prof = tmp_path / "prof.json"
        rc = main(
            ["gen", *args, "--jobs-out", str(jobs), "--profile-out", str(prof)]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not jobs.exists() and not prof.exists()


class TestSubcommands:
    def test_full_round_trip(self, tmp_path, capsys):
        # the second instance's total work times delta is about 10, so the
        # planner's work-signature classes merge states
        for n, max_p, seed in (("6", "20", "3"), ("10", "1000", "1")):
            jobs = tmp_path / "jobs.txt"
            profile = tmp_path / "profile.json"
            sketch_out = tmp_path / "sketch.json"
            plan_out = tmp_path / "plan.json"
            sched_out = tmp_path / "schedule.csv"

            rc = main(
                [
                    "gen", "--jobs", n, "--machines", "2", "--max-p", max_p,
                    "--alpha0", "0.5", "--seed", seed,
                    "--jobs-out", str(jobs), "--profile-out", str(profile),
                ]
            )
            assert rc == 0

            rc = main(
                [
                    "sketch", "--jobs", str(jobs), "--eps", "1.0",
                    "--alpha0", "0.5", "--out", str(sketch_out),
                ]
            )
            assert rc == 0
            assert json.loads(sketch_out.read_text())["n"] == int(n)

            rc = main(
                [
                    "approximate", "--sketch", str(sketch_out),
                    "--profile", str(profile), "--out", str(plan_out),
                ]
            )
            assert rc == 0
            printed_v = float(capsys.readouterr().out.strip())
            plan_obj = json.loads(plan_out.read_text())
            assert printed_v == pytest.approx(plan_obj["V"])
            assert (plan_obj["eps"], plan_obj["alpha0"]) == (1.0, 0.5)

            rc = main(
                [
                    "schedule", "--plan", str(plan_out), "--jobs", str(jobs),
                    "--profile", str(profile), "--out", str(sched_out),
                ]
            )
            assert rc == 0

            rc = main(
                [
                    "eval", "--schedule", str(sched_out), "--profile", str(profile),
                    "--jobs", str(jobs),
                ]
            )
            out = capsys.readouterr().out
            assert rc == 0
            assert "feasible" in out
            sigma = float(out.split("sigma=")[1].split()[0])
            assert sigma <= printed_v * (1 + 1e-9)

            rc = main(["oracle", "--jobs", str(jobs), "--profile", str(profile)])
            assert rc == 0
            opt = float(capsys.readouterr().out.strip())
            assert opt <= sigma * (1 + 1e-9)
            assert sigma <= 2 * opt * (1 + 1e-9)

    @pytest.mark.parametrize(
        "ps, eps_alpha0, bounds",
        [
            (GEN_30, "0.5", ["--n-upper", "30", "--pmax-lower", "1"]),
            # with n_upper=2 the threshold is 100 once 1200 has arrived; 99
            # lies below it but rounds to 104, above it, so it counts
            ([1200, 99], "1.0", ["--n-upper", "2"]),
            ([99, 1200], "1.0", ["--n-upper", "2"]),
        ],
        ids=["gen-30", "high-first", "low-first"],
    )
    def test_kept_bounds_give_the_same_sketch_file(
        self, tmp_path, ps, eps_alpha0, bounds
    ):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, ps)
        files = []
        for extra in ([], bounds):
            out = tmp_path / f"sketch{len(files)}.json"
            assert main(
                [
                    "sketch", "--jobs", str(jobs), "--eps", eps_alpha0,
                    "--alpha0", eps_alpha0, "--out", str(out), *extra,
                ]
            ) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_oracle_schedule_evaluates_to_its_value(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, OLDER_JOBS)
        profile = tmp_path / "profile.json"
        dump_profiles(OLDER_PROFILES, str(profile))
        out = tmp_path / "opt.csv"
        rc = main(
            ["oracle", "--jobs", str(jobs), "--profile", str(profile), "--out", str(out)]
        )
        assert rc == 0
        opt = capsys.readouterr().out.strip()
        rc = main(
            ["eval", "--schedule", str(out), "--profile", str(profile), "--jobs", str(jobs)]
        )
        assert rc == 0
        assert capsys.readouterr().out == f"sigma={opt} feasible\n"

    def test_empty_jobs_file_fails(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("")
        profile = tmp_path / "profile.json"
        dump_profiles((flat_profile(1.0, 1),), str(profile))
        out = tmp_path / "sketch.json"
        rc = main(
            [
                "sketch", "--jobs", str(jobs), "--eps", "1.0",
                "--alpha0", "1.0", "--out", str(out),
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["1 2", "1.5", "x"])
    def test_malformed_jobs_line_fails(self, tmp_path, capsys, line):
        jobs = tmp_path / "jobs.txt"
        jobs.write_text(f"4\n\n 7 \n{line}\n2\n")
        rc = main(
            [
                "sketch", "--jobs", str(jobs), "--eps", "1.0",
                "--alpha0", "1.0", "--out", str(tmp_path / "s.json"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: invalid literal for int() with base 10: '{line}'\n"
        )

    def test_sketch_eps_zero_fails(self, reference_files, tmp_path, capsys):
        jobs, _ = reference_files
        rc = main(
            [
                "sketch", "--jobs", str(jobs), "--eps", "0",
                "--alpha0", "1.0", "--out", str(tmp_path / "s.json"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: eps must be in (0, 1]\n"

    def test_missing_file_fails(self, tmp_path, capsys):
        rc = main(
            [
                "sketch", "--jobs", str(tmp_path / "nope.txt"), "--eps", "1.0",
                "--alpha0", "1.0", "--out", str(tmp_path / "s.json"),
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_approximate_has_no_eps_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "approximate", "--sketch", "s.json", "--profile", "p.json",
                    "--eps", "0.2", "--out", str(tmp_path / "plan.json"),
                ]
            )

    def test_schedule_profile_count_mismatch_fails(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, [1, 2, 3])
        two = tmp_path / "two.json"
        one = tmp_path / "one.json"
        dump_profiles((flat_profile(1.0, 1), flat_profile(1.0, 2)), str(two))
        dump_profiles((flat_profile(1.0, 1),), str(one))
        sketch_out = tmp_path / "sketch.json"
        plan_out = tmp_path / "plan.json"
        assert main(
            [
                "sketch", "--jobs", str(jobs), "--eps", "1.0",
                "--alpha0", "1.0", "--out", str(sketch_out),
            ]
        ) == 0
        assert main(
            [
                "approximate", "--sketch", str(sketch_out),
                "--profile", str(two), "--out", str(plan_out),
            ]
        ) == 0
        rc = main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(jobs),
                "--profile", str(one), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 1
        assert "plan is for 2 machines, got 1 profiles" in capsys.readouterr().err

    def test_schedule_of_another_multiset_fails_without_output(
        self, reference_files, tmp_path, capsys
    ):
        # the plan of [1, 1, 2] has one slot of rp 2; [1, 2, 2] has the same
        # length, but its second 2 finds that slot taken
        jobs, profile = reference_files
        plan_out = sketch_and_plan(tmp_path, jobs, profile)
        other = tmp_path / "other.txt"
        write_jobs(other, [1, 2, 2])
        out = tmp_path / "s.csv"
        rc = main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(other),
                "--profile", str(profile), "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: job 3 (p=2) rounds into plan group 1 (rp=2), whose 1 slots "
            "are all taken\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("p", [3, 1000])
    def test_schedule_of_a_large_job_in_no_group_fails_without_output(
        self, reference_files, tmp_path, capsys, p
    ):
        # the plan of [1, 1, 2] has groups rp 1 and 2; a job that rounds
        # past both is too large to be small, and fits no slot
        jobs, profile = reference_files
        plan_out = sketch_and_plan(tmp_path, jobs, profile)
        other = tmp_path / "other.txt"
        write_jobs(other, [1, 1, p])
        out = tmp_path / "s.csv"
        rc = main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(other),
                "--profile", str(profile), "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: job 3 (p={p}) rounds to no plan group, but not below the "
            "smallest (rp=1)\n"
        )
        assert not out.exists()

    def test_infeasible_schedule_detected(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, [2, 2])
        profile = tmp_path / "profile.json"
        dump_profiles((flat_profile(1.0, 1),), str(profile))
        sched = tmp_path / "schedule.csv"
        # both jobs claim the same time span on machine 1
        sched.write_text(
            "job_id,machine,start,completion\n1,1,0,2\n2,1,1,3\n"
        )
        rc = main(
            [
                "eval", "--schedule", str(sched), "--profile", str(profile),
                "--jobs", str(jobs),
            ]
        )
        assert rc == 1
        assert "infeasible" in capsys.readouterr().out

    def test_placement_of_an_unknown_job_is_infeasible(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, [2, 2])
        profile = tmp_path / "profile.json"
        dump_profiles((flat_profile(1.0, 1),), str(profile))
        sched = tmp_path / "schedule.csv"
        sched.write_text("job_id,machine,start,completion\n1,1,0.0,2.0\n9,1,2.0,4.0\n")
        rc = main(
            [
                "eval", "--schedule", str(sched), "--profile", str(profile),
                "--jobs", str(jobs),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().out == "infeasible: placement for unknown job 9\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1,2.0,inf", "job 2: start 2.0 and completion inf must satisfy"),
            ("2,1,-1e-10,1.9999999999", "job 2: start -1e-10 and completion"),
        ],
        ids=["infinite-completion", "negative-start"],
    )
    def test_schedule_off_the_timeline_is_infeasible(
        self, tmp_path, capsys, row, message
    ):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, [2, 2])
        profile = tmp_path / "profile.json"
        dump_profiles((flat_profile(1.0, 1),), str(profile))
        sched = tmp_path / "schedule.csv"
        sched.write_text(f"job_id,machine,start,completion\n1,1,0.0,2.0\n{row}\n")
        rc = main(
            [
                "eval", "--schedule", str(sched), "--profile", str(profile),
                "--jobs", str(jobs),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().out.startswith(f"infeasible: {message}")

    def test_duplicate_machine_index_fails(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, [3, 3, 3, 3])
        profile = tmp_path / "profile.json"
        dump_profiles((flat_profile(1.0, 1), flat_profile(1.0, 1)), str(profile))
        sketch_out = tmp_path / "sketch.json"
        assert main(
            [
                "sketch", "--jobs", str(jobs), "--eps", "1.0",
                "--alpha0", "1.0", "--out", str(sketch_out),
            ]
        ) == 0
        rc = main(
            [
                "approximate", "--sketch", str(sketch_out),
                "--profile", str(profile), "--out", str(tmp_path / "plan.json"),
            ]
        )
        assert rc == 1
        assert "error: machine index 1 appears twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[2]], r"group 1 \(rp=2\): counts \[\] do not split n_k=1 over 1"),
            ([[1, 1]], r"group 0 \(rp=1\): counts \[1\] do not split n_k=2 over 1"),
            ([[2, 1, 0]], "counts has entries past the last group 1"),
        ],
        ids=["short-row", "wrong-sum", "long-row"],
    )
    def test_schedule_counts_not_matching_groups_fails(
        self, reference_files, tmp_path, capsys, counts, message
    ):
        jobs, profile = reference_files
        plan_out = sketch_and_plan(tmp_path, jobs, profile)
        obj = json.loads(plan_out.read_text())
        assert [(g["rp"], g["n_k"]) for g in obj["groups"]] == [(1, 2), (2, 1)]
        obj["counts"] = counts
        plan_out.write_text(json.dumps(obj))
        rc = main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(jobs),
                "--profile", str(profile), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, no traceback
        assert re.search(message, err)

    def test_plan_with_edited_eps_rejected(self, tmp_path, capsys):
        # at eps 0.7, 68 of the 130 groups are no rounded size; replayed,
        # their jobs would go to the small pile and sigma would reach 2.67 V
        jobs = tmp_path / "jobs.txt"
        profile = tmp_path / "profile.json"
        assert main(
            [
                "gen", "--jobs", "2000", "--machines", "1", "--max-p", "1000",
                "--alpha0", "0.5", "--seed", "3",
                "--jobs-out", str(jobs), "--profile-out", str(profile),
            ]
        ) == 0
        plan_out = sketch_and_plan(tmp_path, jobs, profile, alpha0="0.5")
        obj = json.loads(plan_out.read_text())
        assert len(obj["groups"]) == 130
        plan_out.write_text(json.dumps({**obj, "eps": 0.7}))
        rc = main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(jobs),
                "--profile", str(profile), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: plan group 42 (rp=58) is no rounded size"
        )

    def test_older_plan_schedules_like_a_fresh_one(self, tmp_path):
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, OLDER_JOBS)
        profile = tmp_path / "profile.json"
        dump_profiles(OLDER_PROFILES, str(profile))
        old_plan = tmp_path / "old_plan.json"
        old_plan.write_text(OLDER_PLAN)
        new_plan = sketch_and_plan(tmp_path, jobs, profile, alpha0="0.5")
        assert "starts" not in json.loads(new_plan.read_text())
        rows = []
        for pl in (old_plan, new_plan):
            out = tmp_path / f"{pl.stem}.csv"
            assert main(
                [
                    "schedule", "--plan", str(pl), "--jobs", str(jobs),
                    "--profile", str(profile), "--out", str(out),
                ]
            ) == 0
            assert main(
                [
                    "eval", "--schedule", str(out), "--profile", str(profile),
                    "--jobs", str(jobs),
                ]
            ) == 0
            rows.append(out.read_text().splitlines())
        # the older plan reserved eps*p_max/(3n) = 37.5 time units on
        # machine 1; a fresh one reserves the time for the two unit jobs'
        # work bound, 2 * theta = 4.6875 units, which ends at 5.6875
        assert "2,1,37.5,44.5" in rows[0]
        assert json.loads(new_plan.read_text())["small_reservation"] == 5.6875
        assert "2,1,5.6875,12.6875" in rows[1]
        # machine 2 keeps no reservation, so its rows do not change
        assert [r for r in rows[0] if r.split(",")[1] == "2"] == [
            r for r in rows[1] if r.split(",")[1] == "2"
        ]


# theta = 0.5 * 0.9 * 10800 / (3 * 9**2) = 20, so the eight jobs of 20 are
# small and fill machine 1's reservation of n_s*theta = 160 units of work
# exactly; on one machine at flat capacity 0.9 it ends at 177.78
EXACT_FIT_JOBS = [20] * 8 + [10800]


class TestExactFitReservation:
    @pytest.fixture
    def files(self, tmp_path):
        """The jobs, the profile at capacity 0.9 and the plan made on it."""
        jobs = tmp_path / "jobs.txt"
        write_jobs(jobs, EXACT_FIT_JOBS)
        profile = tmp_path / "profile.json"
        dump_profiles((flat_profile(0.9, 1),), str(profile))
        sketch_out, plan_out = tmp_path / "sketch.json", tmp_path / "plan.json"
        assert main(
            [
                "sketch", "--jobs", str(jobs), "--eps", "0.5",
                "--alpha0", "0.9", "--out", str(sketch_out),
            ]
        ) == 0
        assert main(
            [
                "approximate", "--sketch", str(sketch_out),
                "--profile", str(profile), "--out", str(plan_out),
            ]
        ) == 0
        return jobs, profile, plan_out

    def test_small_jobs_that_fill_the_reservation_stay_in_it(
        self, files, tmp_path, capsys
    ):
        # the eighth small job's chained completion lies an ulp past the
        # reservation's end; it still belongs ahead of the large job, which
        # gives the oracle's optimum
        jobs, profile, plan_out = files
        out = tmp_path / "s.csv"
        assert main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(jobs),
                "--profile", str(profile), "--out", str(out),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "eval", "--schedule", str(out), "--profile", str(profile),
                "--jobs", str(jobs),
            ]
        ) == 0
        assert main(["oracle", "--jobs", str(jobs), "--profile", str(profile)]) == 0
        assert capsys.readouterr().out == (
            "sigma=12977.7777778 feasible\n12977.7777778\n"
        )

    @pytest.mark.parametrize(
        "ps, alpha, job, held, room",
        [
            # another multiset of the same length: its small jobs hold 161
            ([20] * 7 + [21, 10800], 0.9, "8 (p=21)", 161, "160.0"),
            # machine 1 at half speed delivers 88.9 units by the reservation
            (EXACT_FIT_JOBS, 0.5, "5 (p=20)", 100, "88.88888888888889"),
        ],
    )
    def test_small_jobs_past_the_reservation_fail_without_output(
        self, files, tmp_path, capsys, ps, alpha, job, held, room
    ):
        _jobs, _profile, plan_out = files
        jobs, profile = tmp_path / "other.txt", tmp_path / "other.json"
        write_jobs(jobs, ps)
        dump_profiles((flat_profile(alpha, 1),), str(profile))
        out = tmp_path / "s.csv"
        capsys.readouterr()
        rc = main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(jobs),
                "--profile", str(profile), "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: job {job} takes the small jobs' work to {held}, past the "
            f"{room} of machine 1's reservation: the stream or machine 1's "
            "profile differs from pass 1's\n"
        )
        assert not out.exists()

    def test_a_faster_machine_one_still_fits(self, files, tmp_path, capsys):
        jobs, _profile, plan_out = files
        profile = tmp_path / "unit.json"
        dump_profiles((flat_profile(1.0, 1),), str(profile))
        out = tmp_path / "s.csv"
        assert main(
            [
                "schedule", "--plan", str(plan_out), "--jobs", str(jobs),
                "--profile", str(profile), "--out", str(out),
            ]
        ) == 0
        assert main(
            [
                "eval", "--schedule", str(out), "--profile", str(profile),
                "--jobs", str(jobs),
            ]
        ) == 0
        assert capsys.readouterr().out.endswith("sigma=11697.7777778 feasible\n")


def json_without(key):
    return lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != key}
    )


def json_with(**changes):
    return lambda text: json.dumps({**json.loads(text), **changes})


def zero_machine_plan(text):
    return json.dumps({**json.loads(text), "groups": [], "counts": []})


PIECE = '{"end": null, "alpha": 1.0}'
# a subcommand and any arguments past its usual ones, the files it reads
# replaced by malformed ones (a string, or a function of the valid file's
# text), and the error it must name
MALFORMED = {
    "profile-empty-list": (
        "eval", {"profile": "[]"}, "profile JSON must hold a non-empty list"
    ),
    "zero-machine-plan": (
        "schedule",
        {"plan": zero_machine_plan, "profile": "[]"},
        "plan has no machine rows",
    ),
    "machine-without-pieces": (
        "approximate",
        {"profile": '[{"machine": 1, "pieces": []}]'},
        "machine 1 needs a non-empty list of pieces",
    ),
    "profile-without-pieces": (
        "schedule",
        {"profile": '[{"machine": 1}]'},
        "profile JSON machine entry has no 'pieces' key",
    ),
    "profile-without-machine": (
        "oracle",
        {"profile": f'[{{"pieces": [{PIECE}]}}]'},
        "profile JSON machine entry has no 'machine' key",
    ),
    "profile-open-middle-piece": (
        "approximate",
        {"profile": f'[{{"machine": 1, "pieces": [{PIECE}, {PIECE}]}}]'},
        "exactly the last piece must have end=null",
    ),
    "piece-without-alpha": (
        "approximate",
        {"profile": '[{"machine": 1, "pieces": [{"end": null}]}]'},
        "profile JSON machine 1 piece has no 'alpha' key",
    ),
    "profile-object": (
        "eval",
        {"profile": f'{{"machine": 1, "pieces": [{PIECE}]}}'},
        "profile JSON must hold a non-empty list",
    ),
    "sketch-without-entries": (
        "approximate",
        {"sketch": json_without("entries")},
        "sketch JSON has no 'entries' key",
    ),
    "plan-without-sigma": (
        "schedule",
        {"plan": json_without("sigma_S_prime")},
        "plan JSON has no 'sigma_S_prime' key",
    ),
    "profile-null-machine": (
        "eval",
        {"profile": f'[{{"machine": null, "pieces": [{PIECE}]}}]'},
        "profile JSON machine entry 'machine' must be a number, got null",
    ),
    "profile-null-alpha": (
        "eval",
        {"profile": '[{"machine": 1, "pieces": [{"end": null, "alpha": null}]}]'},
        "profile JSON machine 1 piece 'alpha' must be a number, got null",
    ),
    "profile-text-end": (
        "oracle",
        {"profile": f'[{{"machine": 1, "pieces": [{{"end": "2", "alpha": 1.0}}, {PIECE}]}}]'},
        "profile JSON machine 1 piece 'end' must be a number, got \"2\"",
    ),
    "sketch-null-n": (
        "approximate",
        {"sketch": json_with(n=None)},
        "sketch JSON 'n' must be a number, got null",
    ),
    "sketch-null-entries": (
        "approximate",
        {"sketch": json_with(entries=None)},
        "sketch JSON 'entries' must be a list, got null",
    ),
    "plan-null-count": (
        "schedule",
        {"plan": json_with(counts=[[None, 1]])},
        "plan JSON 'counts' row 0 entry 0 must be a number, got null",
    ),
    "plan-null-counts-row": (
        "schedule",
        {"plan": json_with(counts=[None])},
        "plan JSON 'counts' row 0 must be a list, got null",
    ),
    "plan-null-rp": (
        "schedule",
        {"plan": json_with(groups=[{"rp": None, "n_k": 2}, {"rp": 2, "n_k": 1}])},
        "plan JSON group 'rp' must be a number, got null",
    ),
    "profile-fractional-machine": (
        "eval",
        {"profile": f'[{{"machine": 1.9, "pieces": [{PIECE}]}}]'},
        "profile JSON machine entry 'machine' must be an integer, got 1.9",
    ),
    "sketch-infinite-n": (
        "approximate",
        {"sketch": json_with(n=math.inf)},
        "sketch JSON 'n' must be an integer, got Infinity",
    ),
    "sketch-fractional-p-max": (
        "approximate",
        {"sketch": json_with(p_max=2.5)},
        "sketch JSON 'p_max' must be an integer, got 2.5",
    ),
    "sketch-fractional-rp": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 1.5, "count": 2}, {"rp": 2, "count": 1}])},
        "sketch JSON entry 'rp' must be an integer, got 1.5",
    ),
    "sketch-fractional-count": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 1, "count": 2.5}, {"rp": 2, "count": 1}])},
        "sketch JSON entry 'count' must be an integer, got 2.5",
    ),
    "plan-fractional-n": (
        "schedule",
        {"plan": json_with(n=3.5)},
        "plan JSON 'n' must be an integer, got 3.5",
    ),
    "plan-fractional-rp": (
        "schedule",
        {"plan": json_with(groups=[{"rp": 1.5, "n_k": 2}, {"rp": 2, "n_k": 1}])},
        "plan JSON group 'rp' must be an integer, got 1.5",
    ),
    "plan-fractional-n-k": (
        "schedule",
        {"plan": json_with(groups=[{"rp": 1, "n_k": 2.5}, {"rp": 2, "n_k": 1}])},
        "plan JSON group 'n_k' must be an integer, got 2.5",
    ),
    "plan-fractional-count": (
        "schedule",
        {"plan": json_with(counts=[[2, 0.5]])},
        "plan JSON 'counts' row 0 entry 1 must be an integer, got 0.5",
    ),
    "plan-nan-count": (
        "schedule",
        {"plan": json_with(counts=[[math.nan, 1]])},
        "plan JSON 'counts' row 0 entry 0 must be an integer, got NaN",
    ),
    "plan-alpha0-above-one": (
        "schedule",
        {"plan": json_with(alpha0=7)},
        "plan JSON: alpha0 must be in (0, 1], got 7",
    ),
    "sketch-nan-eps": (
        "approximate",
        {"sketch": json_with(eps=math.nan)},
        "sketch JSON: eps must be in (0, 1], got NaN",
    ),
    "plan-infinite-small-reservation": (
        "schedule",
        {"plan": json_with(small_reservation=math.inf)},
        "plan JSON: small_reservation must be >= 0 and finite, got Infinity",
    ),
    "plan-negative-small-reservation": (
        "schedule",
        {"plan": json_with(small_reservation=-5)},
        "plan JSON: small_reservation must be >= 0 and finite, got -5",
    ),
    "plan-negative-rp": (
        "schedule",
        {"plan": json_with(groups=[{"rp": -3, "n_k": 2}, {"rp": 2, "n_k": 1}])},
        "plan JSON group: rp must be >= 1 and finite, got -3",
    ),
    "sketch-negative-count": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 1, "count": -1}, {"rp": 2, "count": 1}])},
        "sketch JSON entry: count must be >= 1 and finite, got -1",
    ),
    "sketch-zero-rp": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 0, "count": 2}, {"rp": 2, "count": 1}])},
        "sketch JSON entry: rp must be >= 1 and finite, got 0",
    ),
    "sketch-zero-count": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 1, "count": 0}, {"rp": 2, "count": 1}])},
        "sketch JSON entry: count must be >= 1 and finite, got 0",
    ),
    "sketch-zero-n": (
        "approximate",
        {"sketch": json_with(n=0)},
        "sketch JSON: n must be >= 1 and finite, got 0",
    ),
    "sketch-negative-p-max": (
        "approximate",
        {"sketch": json_with(p_max=-7)},
        "sketch JSON: p_max must be >= 1 and finite, got -7",
    ),
    "sketch-entries-over-n": (
        "approximate",
        {"sketch": json_with(n=1)},
        "sketch JSON: entries hold 3 jobs, more than n=1",
    ),
    # 1 + tau rounds to 1, so no power table of (1+tau) passes a job
    "sketch-tiny-eps": (
        "approximate",
        {"sketch": json_with(eps=1e-300)},
        "eps=1e-300 and alpha0=1.0 give tau=",
    ),
    "plan-tiny-eps": (
        "schedule",
        {"plan": json_with(eps=1e-300)},
        "eps=1e-300 and alpha0=1.0 give tau=",
    ),
    # 21 is no floor((1 + 1/15)^k), so no job could take the group's slot
    "plan-unreachable-group": (
        "schedule",
        {"plan": json_with(groups=[{"rp": 1, "n_k": 2}, {"rp": 21, "n_k": 1}])},
        "plan group 1 (rp=21) is no rounded size",
    ),
    # past the float range, where no power of (1+tau) reaches
    "sketch-huge-rp": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 1, "count": 2}, {"rp": 10**400, "count": 1}])},
        "sketch JSON entry 1: rp must be below 2**1023, got an integer of 401 digits",
    ),
    "plan-huge-rp": (
        "schedule",
        {"plan": json_with(groups=[{"rp": 1, "n_k": 2}, {"rp": 10**400, "n_k": 1}])},
        "plan group 1: rp must be below 2**1023, got an integer of 401 digits",
    ),
    # rp 2 edited to 21, no floor((1 + 1/15)^k): the sketch entry is named
    # before a plan is made of it
    # numbers past the float range, each at its place in the chain
    "sketch-huge-p-max": (
        "approximate",
        {"sketch": json_with(p_max=10**400)},
        "sketch JSON: p_max must be below 2**1023, got an integer of 401 digits",
    ),
    "sketch-huge-n": (
        "approximate",
        {"sketch": json_with(n=10**400)},
        "sketch JSON: n must be below 2**1023, got an integer of 401 digits",
    ),
    "jobs-huge-p-sketch": (
        "sketch",
        {"jobs": f"1\n1\n{10**400}\n"},
        "job 3: processing time must be below 2**1023, got an integer of 401 digits",
    ),
    "jobs-huge-p-schedule": (
        "schedule",
        {"jobs": f"1\n1\n{10**400}\n"},
        "job 3: processing time must be below 2**1023, got an integer of 401 digits",
    ),
    # a job below 1, named in either pass
    "jobs-zero-sketch": (
        "sketch",
        {"jobs": "1\n0\n2\n"},
        "job 2: processing time must be >= 1",
    ),
    "jobs-zero-schedule": (
        "schedule",
        {"jobs": "1\n0\n2\n"},
        "job 2: processing time must be >= 1",
    ),
    "jobs-zero-eval": (
        "eval",
        {"jobs": "1\n0\n2\n"},
        "job 2: processing time must be >= 1",
    ),
    "jobs-zero-oracle": (
        "oracle",
        {"jobs": "1\n0\n2\n"},
        "job 2: processing time must be >= 1",
    ),
    # the reader's error comes after the jobs read before it, so the job
    # below 1 ahead of the malformed line is the one named
    "jobs-zero-before-malformed-sketch": (
        "sketch",
        {"jobs": "5\n0\nx\n"},
        "job 2: processing time must be >= 1",
    ),
    # a float, but no rounded size past it is: pass 2 names it too
    "jobs-p-at-limit-schedule": (
        "schedule",
        {"jobs": f"1\n{2**1023}\n1\n"},
        "job 2: processing time must be below 2**1023, got an integer of 308 digits",
    ),
    "jobs-huge-p-eval": (
        "eval",
        {"jobs": f"1\n1\n{10**400}\n"},
        "job 3: processing time must be below 2**1023, got an integer of 401 digits",
    ),
    "sketch-unrounded-rp": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 1, "count": 2}, {"rp": 21, "count": 1}])},
        "sketch JSON entry 1 (rp=21) is no rounded size",
    ),
    "sketch-repeated-rp": (
        "approximate",
        {"sketch": json_with(entries=[{"rp": 2, "count": 2}, {"rp": 2, "count": 1}])},
        "sketch JSON entry 0 (rp=2) repeats sketch JSON entry 1",
    ),
    # knowledge bounds whose threshold would leave the float range
    "n-upper-huge": (
        f"sketch --n-upper {10**400}",
        {},
        "n_upper must be below 2**511, got an integer of 401 digits",
    ),
    "n-upper-squared-past-float": (
        f"sketch --n-upper {2**600}",
        {},
        "n_upper must be below 2**511, got an integer of 181 digits",
    ),
    "pmax-lower-huge": (
        f"sketch --pmax-lower {10**400}",
        {},
        "pmax_lower must be below 2**1023, got an integer of 401 digits",
    ),
    # each rp is below the limit, but the work they sum to, or V, is not
    "sketch-work-past-float": (
        "approximate",
        {"sketch": sketch_stream([2**1022] * 5, 1.0, 1.0).to_json()},
        "sketch's total work sum(rp * count) must be below 2**1023, got an "
        "integer of 309 digits",
    ),
    "sketch-value-past-float": (
        "approximate",
        {
            "sketch": sketch_stream([2**1020] * 3, 1.0, 0.5).to_json(),
            "profile": '[{"machine": 1, "pieces": [{"end": null, "alpha": 0.5}]}]',
        },
        "is past the float range",
    ),
    "profile-machine-past-int64": (
        "schedule",
        {"profile": f'[{{"machine": {2**63}, "pieces": [{PIECE}]}}]'},
        f"profile JSON machine {2**63} is outside the signed 64-bit range",
    ),
    "schedule-job-id-past-int64": (
        "eval",
        {"schedule": f"job_id,machine,start,completion\n1,1,0.0,1.0\n{2**63},1,1.0,2.0\n"},
        f"schedule CSV row 2: job_id {2**63} is outside the signed 64-bit range",
    ),
    "schedule-machine-past-int64": (
        "eval",
        {"schedule": f"job_id,machine,start,completion\n1,{-2**63 - 1},0.0,1.0\n"},
        f"schedule CSV row 1: machine {-2**63 - 1} is outside the signed 64-bit",
    ),
    "schedule-without-completion": (
        "eval",
        {"schedule": "job_id,machine,start\n1,1,0.0\n2,1,1.0\n3,1,2.0\n"},
        "schedule CSV has no 'completion' column",
    ),
    "schedule-short-row": (
        "eval",
        {"schedule": "job_id,machine,start,completion\n1,1,0.0\n"},
        "could not convert string to float",
    ),
}

COMMANDS = {
    "sketch": ["--jobs", "jobs", "--eps", "1.0", "--alpha0", "1.0", "--out", "out"],
    "approximate": ["--sketch", "sketch", "--profile", "profile", "--out", "out"],
    "schedule": ["--plan", "plan", "--jobs", "jobs", "--profile", "profile",
                 "--out", "out"],
    "eval": ["--schedule", "schedule", "--profile", "profile", "--jobs", "jobs"],
    "oracle": ["--jobs", "jobs", "--profile", "profile"],
}


@pytest.mark.parametrize("command, files, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_gives_one_error_line(
    reference_files, tmp_path, capsys, command, files, message
):
    jobs, profile = reference_files
    paths = {
        "jobs": jobs,
        "profile": profile,
        "sketch": tmp_path / "sketch.json",
        "plan": sketch_and_plan(tmp_path, jobs, profile),
        "schedule": tmp_path / "schedule.csv",
        "out": tmp_path / "out",
    }
    assert main(
        [
            "schedule", "--plan", str(paths["plan"]), "--jobs", str(jobs),
            "--profile", str(profile), "--out", str(paths["schedule"]),
        ]
    ) == 0
    for name, content in files.items():
        if callable(content):
            content = content(paths[name].read_text())
        paths[name].write_text(content)
    capsys.readouterr()
    command, *extra = command.split()
    args = [str(paths[a]) if a in paths else a for a in COMMANDS[command]]
    assert main([command, *args, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert message in err
