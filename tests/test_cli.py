import random

import pytest

from capacore.cli import main
from capacore.coreset import read_coreset
from capacore.geometry import Point, read_points, write_points
from capacore.streaming import write_stream


def _gen(tmp_path, name="pts.txt", n=25, seed=1, extra=()):
    path = tmp_path / name
    rc = main(["gen", "--out", str(path), "--n", str(n), "--Delta", "8",
               "--kind", "gaussian", "--clusters", "2", "--spread", "1.0",
               "--seed", str(seed), *extra])
    assert rc == 0
    return path


def _build(tmp_path, pts_path, name="core.txt", extra=()):
    out = tmp_path / name
    rc = main(["build", "--input", str(pts_path), "--output", str(out),
               "-k", "2", "--Delta", "8", "--eps", "0.4", "--eta", "0.4",
               "--seed", "3", *extra])
    assert rc == 0
    return out


def test_gen_deterministic_and_counts(tmp_path):
    a = _gen(tmp_path, "a.txt", n=30, seed=9)
    b = _gen(tmp_path, "b.txt", n=30, seed=9)
    assert a.read_text() == b.read_text()
    assert len(read_points(a)) == 30
    c = _gen(tmp_path, "c.txt", n=30, seed=10)
    assert c.read_text() != a.read_text()


def test_gen_cluster_means_near_declared(tmp_path):
    path = _gen(tmp_path, n=400, seed=4)
    means = {}
    for line in path.read_text().splitlines():
        if line.startswith("% mean."):
            key, val = line[2:].split("=")
            means[int(key.split(".")[1])] = tuple(int(x) for x in val.split(","))
    pts = read_points(path)
    for j, mean in means.items():
        members = [p for p in pts if p.tag % len(means) == j]
        for axis in range(2):
            avg = sum(p.coords[axis] for p in members) / len(members)
            # spread 1.0, clipped to the grid: sample mean stays close
            assert abs(avg - mean[axis]) <= 0.6


def test_build_offline_and_header_roundtrip(tmp_path):
    pts_path = _gen(tmp_path)
    core_path = _build(tmp_path, pts_path)
    core = read_coreset(core_path)
    assert len(core) > 0
    # rebuilding from the same inputs reproduces the file bit for bit
    again = _build(tmp_path, pts_path, name="core2.txt")
    assert core_path.read_text() == again.read_text()


def test_build_fails_instead_of_writing_empty_coreset(tmp_path, capsys):
    # sampled counts at this scale estimate every cell as empty; no guess
    # may then accept an empty coreset for the 300 input points, and the
    # error names that gate
    pts_path = tmp_path / "g.txt"
    assert main(["gen", "--out", str(pts_path), "--n", "300", "--Delta", "8",
                 "--seed", "1"]) == 0
    stream_path = tmp_path / "g.stream"
    write_stream(stream_path, [(p, +1) for p in read_points(pts_path)])
    capsys.readouterr()
    for mode, path in (("offline", pts_path), ("stream", stream_path),
                       ("dist", pts_path)):
        out = tmp_path / f"c-{mode}.txt"
        rc = main(["build", "--input", str(path), "--output", str(out),
                   "-k", "3", "--Delta", "8", "--params-mode",
                   "practical:3e-57", "--mode", mode])
        assert rc == 3
        assert "the last guess failed at the empty-coreset gate: the h' " \
            "estimator sample is empty" in capsys.readouterr().err
        assert not out.exists()


def test_empty_input_builds_the_empty_coreset_in_every_mode(tmp_path):
    # an empty point file, and a stream whose inserts are all deleted
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    churn = tmp_path / "churn.stream"
    churn.write_text("+ 1 1 #0\n+ 5 6 #1\n- 1 1 #0\n- 5 6 #1\n")
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    files = []
    for mode, path in (("offline", empty), ("stream", empty),
                       ("stream", churn), ("dist", empty)):
        out = tmp_path / f"c-{mode}-{path.stem}.txt"
        rc = main(["build", "--input", str(path), "--output", str(out),
                   "-k", "2", "--Delta", "8", "--seed", "3", "--mode", mode])
        assert rc == 0
        assert main(["assign", "--coreset", str(out), "--centers",
                     str(centers), "--capacity", "5",
                     "--out", str(tmp_path / "assign.txt")]) == 0
        files.append(out.read_text())
    assert len(set(files)) == 1
    assert "% o_attempts=\n" in files[0]
    assert len(read_coreset(out)) == 0


@pytest.mark.parametrize("old, new, key", [
    ("% params: ", "% not-params: ", "params"),    # missing params line
    (" k=2 ", " k=two ", "params"),                # malformed params entry
    ("% shift=", "% no-shift=", "shift"),          # missing shift line
    ("% seed=3", "% seed=x", "seed"),              # malformed seed
])
def test_assign_rejects_malformed_coreset_header(tmp_path, capsys, old, new,
                                                 key):
    pts_path = _gen(tmp_path, n=24)
    core_path = _build(tmp_path, pts_path)
    text = core_path.read_text()
    assert old in text
    core_path.write_text(text.replace(old, new, 1))
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               "--capacity", "18", "--out", str(tmp_path / "assign.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(core_path) in err and repr(key) in err


def test_stream_build_matches_offline(tmp_path):
    pts_path = _gen(tmp_path)
    offline_path = _build(tmp_path, pts_path)
    pts = read_points(pts_path)
    stream_path = tmp_path / "updates.txt"
    write_stream(stream_path, [(p, +1) for p in pts])
    stream_out = tmp_path / "core_stream.txt"
    rc = main(["build", "--mode", "stream", "--input", str(stream_path),
               "--output", str(stream_out), "-k", "2", "--Delta", "8",
               "--eps", "0.4", "--eta", "0.4", "--seed", "3"])
    assert rc == 0
    # the whole file: entries and every header (part, heavy and phi tables)
    assert stream_out.read_bytes() == offline_path.read_bytes()


def test_dist_build_single_machine_matches_offline(tmp_path, capsys):
    pts_path = _gen(tmp_path)
    offline_path = _build(tmp_path, pts_path)
    dist_out = tmp_path / "core_dist.txt"
    rc = main(["build", "--mode", "dist", "--machines", "1",
               "--input", str(pts_path), "--output", str(dist_out),
               "-k", "2", "--Delta", "8", "--eps", "0.4", "--eta", "0.4",
               "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "comm_bytes=" in out
    assert dist_out.read_bytes() == offline_path.read_bytes()


def test_dist_build_on_three_machines_matches_offline(tmp_path):
    pts_path = _gen(tmp_path)
    offline_path = _build(tmp_path, pts_path)
    dist_out = _build(tmp_path, pts_path, name="core_dist.txt",
                      extra=("--mode", "dist", "--machines", "3"))
    assert dist_out.read_bytes() == offline_path.read_bytes()


def test_eval_identity_clean_and_brute_check(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=8)
    core_path = _build(tmp_path, pts_path)
    audit = tmp_path / "audit.csv"
    rc = main(["eval", "--input", str(pts_path), "--coreset", str(core_path),
               "--out", str(audit), "--center-samples", "10", "--seed", "5",
               "--brute-check", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "violations=0" in out
    assert audit.exists()


def test_eval_corrupted_coreset_reports_violations(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=20)
    core_path = _build(tmp_path, pts_path)
    # double every weight in the coreset file
    lines = []
    for line in core_path.read_text().splitlines():
        if line.startswith("%"):
            lines.append(line)
        else:
            w, rest = line.split(" ", 1)
            lines.append(f"{float(w) * 2!r} {rest}")
    core_path.write_text("\n".join(lines) + "\n")
    audit = tmp_path / "audit.csv"
    rc = main(["eval", "--input", str(pts_path), "--coreset", str(core_path),
               "--out", str(audit), "--center-samples", "10", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "violations=0" not in out


def test_eval_brute_check_cap_exit_code(tmp_path):
    pts_path = _gen(tmp_path, n=25)
    core_path = _build(tmp_path, pts_path)
    audit = tmp_path / "audit.csv"
    rc = main(["eval", "--input", str(pts_path), "--coreset", str(core_path),
               "--out", str(audit), "--center-samples", "3", "--seed", "5",
               "--brute-check", "1"])
    assert rc == 4  # 25 points exceed the enumeration oracle's cap


def test_assign_coreset_and_full_input(tmp_path):
    pts_path = _gen(tmp_path, n=24)
    core_path = _build(tmp_path, pts_path)
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    out = tmp_path / "assign.txt"
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               "--capacity", "18", "--out", str(out)])
    assert rc == 0
    body = out.read_text()
    assert "-> " in body and "% cost=" in body and "% size_vector=" in body
    out_full = tmp_path / "assign_full.txt"
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               "--capacity", "18", "--full-input", str(pts_path),
               "--out", str(out_full)])
    assert rc == 0
    n_lines = sum(1 for line in out_full.read_text().splitlines()
                  if "->" in line)
    assert n_lines == 24


def test_assign_infeasible_exit_code(tmp_path):
    pts_path = _gen(tmp_path, n=24)
    core_path = _build(tmp_path, pts_path)
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    out = tmp_path / "assign.txt"
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               "--capacity", "2", "--out", str(out)])
    assert rc == 3


def test_centers_demo(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=20)
    core_path = _build(tmp_path, pts_path)
    out = tmp_path / "z.txt"
    rc = main(["centers", "--coreset", str(core_path), "--out", str(out),
               "--seed", "2", "--iters", "3"])
    assert rc == 0
    assert len(read_points(out)) == 2


def test_usage_error_exit_code(tmp_path):
    pts_path = _gen(tmp_path)
    out = tmp_path / "x.txt"
    rc = main(["build", "--input", str(pts_path), "--output", str(out),
               "-k", "2", "--Delta", "8", "--eps", "0.9", "--seed", "1"])
    assert rc == 2
    rc = main(["build", "--input", str(pts_path), "--output", str(out),
               "-k", "2", "--Delta", "8", "--params-mode", "bogus",
               "--seed", "1"])
    assert rc == 2


def test_delta_rounding_warning(tmp_path, capsys):
    path = tmp_path / "p.txt"
    rc = main(["gen", "--out", str(path), "--n", "5", "--Delta", "9",
               "--seed", "1"])
    assert rc == 0
    assert "rounded up" in capsys.readouterr().err
    assert all(max(p.coords) <= 16 for p in read_points(path))


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPACORE_SEED", "77")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["gen", "--out", str(a), "--n", "10", "--Delta", "8"]) == 0
    assert main(["gen", "--out", str(b), "--n", "10", "--Delta", "8",
                 "--seed", "77"]) == 0
    assert a.read_text() == b.read_text()


def test_env_seed_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAPACORE_SEED", "abc")
    out = tmp_path / "a.txt"
    assert main(["gen", "--out", str(out), "--n", "10", "--Delta", "8"]) == 2
    assert "CAPACORE_SEED" in capsys.readouterr().err
    assert not out.exists()


def test_gen_uniform_kind(tmp_path):
    path = tmp_path / "u.txt"
    rc = main(["gen", "--out", str(path), "--n", "50", "--Delta", "8",
               "--kind", "uniform", "--seed", "2"])
    assert rc == 0
    pts = read_points(path)
    assert len(pts) == 50
    assert all(1 <= c <= 8 for p in pts for c in p.coords)


def test_eval_auto_t_grid(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=40)
    core_path = _build(tmp_path, pts_path)
    audit = tmp_path / "audit.csv"
    rc = main(["eval", "--input", str(pts_path), "--coreset", str(core_path),
               "--out", str(audit), "--center-samples", "5",
               "--t-grid", "auto", "--seed", "5"])
    assert rc == 0
    body = [line for line in audit.read_text().splitlines()
            if line and not line.startswith("#")]
    t_count = len({line.split(",")[1] for line in body[1:]})
    assert 1 <= t_count <= 17


@pytest.mark.parametrize("grid", ["5:x:1", "5:10", "5:10:0"])
def test_eval_rejects_malformed_t_grid(tmp_path, capsys, grid):
    pts_path = _gen(tmp_path, n=10)
    core_path = _build(tmp_path, pts_path)
    rc = main(["eval", "--input", str(pts_path), "--coreset", str(core_path),
               "--out", str(tmp_path / "audit.csv"), "--t-grid", grid])
    assert rc == 2
    assert "--t-grid" in capsys.readouterr().err


@pytest.mark.parametrize("line, extra", [
    ("1.5 2", ()),                       # non-integer coordinate
    ("1 2 3", ()),                       # three coordinates with --d 2
    ("1 99", ()),                        # outside [1, Delta]^d
    ("1 2 3", ("--mode", "stream")),     # the same checks on stream input
])
def test_build_rejects_malformed_points(tmp_path, capsys, line, extra):
    pts_path = tmp_path / "bad.txt"
    body = ["1 1 #0", "2 2 #1", line + " #2"]
    if "stream" in extra:
        body = ["+ " + row for row in body]
    pts_path.write_text("\n".join(body) + "\n")
    out = tmp_path / "core.txt"
    rc = main(["build", "--input", str(pts_path), "--output", str(out),
               "-k", "2", "--Delta", "8", "--d", "2", "--seed", "1", *extra])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_assign_rejects_coreset_entry_without_entrymeta(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=24)
    core_path = _build(tmp_path, pts_path)
    lines = [line for line in core_path.read_text().splitlines()
             if not line.startswith("% entrymeta=")]
    core_path.write_text("\n".join(lines) + "\n")
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               "--capacity", "18", "--out", str(tmp_path / "assign.txt")])
    assert rc == 2
    assert "entrymeta" in capsys.readouterr().err


def test_eval_and_assign_reject_points_outside_the_coreset_domain(tmp_path,
                                                                   capsys):
    pts_path = _gen(tmp_path, n=20)
    core_path = _build(tmp_path, pts_path)
    bad_input = tmp_path / "bad.txt"
    bad_input.write_text(pts_path.read_text() + "1 99 #999\n")
    rc = main(["eval", "--input", str(bad_input), "--coreset", str(core_path),
               "--out", str(tmp_path / "audit.csv"), "--center-samples", "3",
               "--seed", "5"])
    assert rc == 2
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    bad_centers = tmp_path / "bad_centers.txt"
    bad_centers.write_text("3 3\n99 99\n")
    for extra in (("--centers", str(bad_centers)),
                  ("--centers", str(centers), "--full-input", str(bad_input))):
        rc = main(["assign", "--coreset", str(core_path), "--capacity", "18",
                   "--out", str(tmp_path / "assign.txt"), *extra])
        assert rc == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("weight_line, meta_line", [
    ("x 1 1 #0", "% entrymeta=0,0"),     # non-numeric weight
    ("1.0 1 1 #0", "% entrymeta=0"),     # entrymeta without the part index
    ("1.0 1 1 #0", "% entrymeta=a,b"),   # non-integer entrymeta
])
def test_assign_rejects_malformed_coreset_entry(tmp_path, capsys, weight_line,
                                                meta_line):
    pts_path = _gen(tmp_path, n=24)
    core_path = _build(tmp_path, pts_path)
    core_path.write_text(core_path.read_text() + meta_line + "\n"
                         + weight_line + "\n")
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               "--capacity", "18", "--out", str(tmp_path / "assign.txt")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_build_rejects_tags_outside_the_encoder_range(tmp_path, capsys):
    pts_path = tmp_path / "tags.txt"
    pts_path.write_text("1 1 #-5\n2 2 #1\n")
    out = tmp_path / "core.txt"
    rc = main(["build", "--input", str(pts_path), "--output", str(out),
               "-k", "2", "--Delta", "8", "--seed", "1"])
    assert rc == 2
    assert "tag" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    ["- 2 2 #5"],                            # never inserted
    ["+ 1 1 #0", "- 2 2 #5", "+ 2 2 #5"],    # deleted before its insertion
    ["+ 2 2 #5", "- 2 2 #5", "- 2 2 #5"],    # deleted twice
])
def test_stream_build_rejects_deleting_a_point_without_live_copy(tmp_path,
                                                                 capsys, lines):
    stream_path = tmp_path / "updates.txt"
    stream_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "core.txt"
    rc = main(["build", "--mode", "stream", "--input", str(stream_path),
               "--output", str(out), "-k", "2", "--Delta", "8", "--seed", "1"])
    assert rc == 2
    assert "no live copy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("capacity, code", [
    ("nan", 2), ("-inf", 2),             # no capacity: a usage error
    ("0", 3), ("-1", 3),                 # finite capacity holds no point
])
def test_assign_capacity_out_of_domain(tmp_path, capsys, capacity, code):
    pts_path = _gen(tmp_path, n=24)
    core_path = _build(tmp_path, pts_path)
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n6 6\n")
    out = tmp_path / "assign.txt"
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               f"--capacity={capacity}", "--out", str(out)])
    assert rc == code
    if code == 2:
        assert "capacity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [("--clusters", "0"), ("--d", "0"),
                                   ("--spread", "nan"), ("--spread", "inf"),
                                   ("--spread", "-0.5"), ("--n", "-3")])
def test_gen_rejects_empty_clusters_and_dimension(tmp_path, capsys, extra):
    out = tmp_path / "pts.txt"
    rc = main(["gen", "--out", str(out), "--n", "5", "--seed", "1", *extra])
    assert rc == 2
    assert extra[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["offline", "stream", "dist"])
@pytest.mark.parametrize("Delta", [1 << 63, 1 << 64])
def test_build_rejects_delta_above_2_62_in_every_mode(tmp_path, capsys, mode,
                                                      Delta):
    pts_path = _gen(tmp_path, n=30)
    if mode == "stream":
        write_stream(pts_path, [(p, 1) for p in read_points(pts_path)])
    out = tmp_path / "core.txt"
    rc = main(["build", "--mode", mode, "--input", str(pts_path),
               "--output", str(out), "-k", "2", "--Delta", str(Delta),
               "--seed", "1"])
    assert rc == 2
    assert "2^62" in capsys.readouterr().err
    assert not out.exists()


def test_build_accepts_delta_2_62(tmp_path):
    pts_path = _gen(tmp_path, n=30)
    out = tmp_path / "core.txt"
    assert main(["build", "--input", str(pts_path), "--output", str(out),
                 "-k", "2", "--Delta", str(1 << 62), "--seed", "1"]) == 0
    assert len(read_coreset(out)) == 30


@pytest.mark.parametrize("extra", [
    ("-r", "nan"), ("-r", "inf"), ("--params-mode", "practical:nan"),
    ("--params-mode", "practical:inf"), ("--params-mode", "practical:x")])
def test_build_rejects_non_finite_r_and_scale(tmp_path, capsys, extra):
    pts_path = _gen(tmp_path, n=30)
    out = tmp_path / "core.txt"
    rc = main(["build", "--input", str(pts_path), "--output", str(out),
               "-k", "2", "--Delta", "8", "--seed", "1", *extra])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_eval_rejects_non_positive_center_samples(tmp_path, capsys, samples):
    pts_path = _gen(tmp_path, n=30)
    core_path = _build(tmp_path, pts_path)
    audit = tmp_path / "audit.csv"
    rc = main(["eval", "--input", str(pts_path), "--coreset", str(core_path),
               "--out", str(audit), "--center-samples", samples])
    assert rc == 2
    assert "--center-samples" in capsys.readouterr().err
    assert not audit.exists()


def test_eval_rejects_negative_brute_check(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=30)
    core_path = _build(tmp_path, pts_path)
    audit = tmp_path / "audit.csv"
    rc = main(["eval", "--input", str(pts_path), "--coreset", str(core_path),
               "--out", str(audit), "--brute-check", "-1"])
    assert rc == 2
    assert "--brute-check" in capsys.readouterr().err
    assert not audit.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_centers_rejects_non_positive_k(tmp_path, capsys, k):
    pts_path = _gen(tmp_path, n=30)
    core_path = _build(tmp_path, pts_path)
    out = tmp_path / "z.txt"
    rc = main(["centers", "--coreset", str(core_path), "--out", str(out),
               "-k", k])
    assert rc == 2
    assert "-k" in capsys.readouterr().err
    assert not out.exists()


def test_dist_build_rejects_fewer_than_one_machine(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=20)
    out = tmp_path / "core.txt"
    rc = main(["build", "--input", str(pts_path), "--output", str(out),
               "-k", "2", "--Delta", "8", "--mode", "dist",
               "--machines", "0"])
    assert rc == 2
    assert "--machines" in capsys.readouterr().err
    assert not out.exists()


def test_centers_rejects_negative_iters(tmp_path, capsys):
    pts_path = _gen(tmp_path, n=30)
    core_path = _build(tmp_path, pts_path)
    out = tmp_path / "z.txt"
    rc = main(["centers", "--coreset", str(core_path), "--out", str(out),
               "--iters", "-1"])
    assert rc == 2
    assert "--iters" in capsys.readouterr().err
    assert not out.exists()


def _repeated_points(tmp_path, tagged: bool):
    """30 distinct coordinate pairs on [1, 16]^2, each listed 4 times: as
    repeated points, or as copies with distinct tags."""
    coords = random.Random(1).sample(
        [(x, y) for x in range(1, 17) for y in range(1, 17)], 30)
    pts = [Point(c, 30 * copy + i if tagged else -1)
           for copy in range(4) for i, c in enumerate(coords)]
    path = tmp_path / ("tagged.txt" if tagged else "repeated.txt")
    write_points(path, pts)
    stream_path = tmp_path / (path.stem + ".stream")
    write_stream(stream_path, [(p, +1) for p in pts])
    return path, stream_path


def _build16(path, out, mode):
    return main(["build", "--mode", mode, "--input", str(path),
                 "--output", str(out), "-k", "2", "--Delta", "16",
                 "--seed", "1", "--exact-counts"])


def test_build_rejects_repeated_points_in_every_mode(tmp_path, capsys):
    path, stream_path = _repeated_points(tmp_path, tagged=False)
    for mode, src, why in (("offline", path, "is repeated"),
                           ("dist", path, "is repeated"),
                           ("stream", stream_path, "already has a live copy")):
        out = tmp_path / f"core-{mode}.txt"
        assert _build16(src, out, mode) == 2
        err = capsys.readouterr().err
        assert why in err and "distinct #tags" in err
        assert not out.exists()


def test_copies_with_distinct_tags_build_the_same_file_in_every_mode(tmp_path):
    path, stream_path = _repeated_points(tmp_path, tagged=True)
    files = []
    for mode, src in (("offline", path), ("stream", stream_path),
                      ("dist", path)):
        out = tmp_path / f"core-{mode}.txt"
        assert _build16(src, out, mode) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]
    # every copy is an entry of its own (rates are 1 at this scale)
    assert len(read_coreset(out)) == 120


def test_eval_and_assign_reject_repeated_input_points(tmp_path, capsys):
    tagged, _ = _repeated_points(tmp_path, tagged=True)
    repeated, _ = _repeated_points(tmp_path, tagged=False)
    core_path = tmp_path / "core.txt"
    assert _build16(tagged, core_path, "offline") == 0
    rc = main(["eval", "--input", str(repeated), "--coreset", str(core_path),
               "--out", str(tmp_path / "audit.csv"), "--center-samples", "3"])
    assert rc == 2
    assert "is repeated" in capsys.readouterr().err
    centers = tmp_path / "centers.txt"
    centers.write_text("3 3\n12 12\n")
    out = tmp_path / "assign.txt"
    rc = main(["assign", "--coreset", str(core_path), "--centers", str(centers),
               "--capacity", "80", "--full-input", str(repeated),
               "--out", str(out)])
    assert rc == 2
    assert "is repeated" in capsys.readouterr().err
    assert not out.exists()
    # the centers file is not checked: equal centers are legal
    centers.write_text("3 3\n3 3\n")
    assert main(["assign", "--coreset", str(core_path), "--centers",
                 str(centers), "--capacity", "80", "--full-input", str(tagged),
                 "--out", str(out)]) == 0


def test_eval_where_the_lattice_passes_int64(tmp_path, capsys):
    # Delta**d = 2**96 lattice points: eval draws its centers past the
    # range rng.sample takes
    Delta = str(2 ** 32)
    pts_path = tmp_path / "wide.txt"
    assert main(["gen", "--out", str(pts_path), "--kind", "uniform",
                 "--d", "3", "--Delta", Delta, "--n", "300",
                 "--seed", "1"]) == 0
    core_path = tmp_path / "core.txt"
    assert main(["build", "--input", str(pts_path), "--output",
                 str(core_path), "-k", "3", "--d", "3", "--Delta", Delta,
                 "--seed", "1"]) == 0
    audit = tmp_path / "audit.csv"
    assert main(["eval", "--input", str(pts_path), "--coreset",
                 str(core_path), "--out", str(audit), "--center-samples",
                 "2"]) == 0
    assert "violations=0" in capsys.readouterr().out
    rows = [line for line in audit.read_text().splitlines()
            if line[:1].isdigit()]
    assert len(rows) == 60  # 2 center sets x 15 capacities x 2 forms


def test_sketch_backed_stream_and_dist_builds_match_offline(tmp_path):
    # gen's defaults at n = 300 and Delta = 256, as in the CI job's step
    pts_path = tmp_path / "pts.txt"
    assert main(["gen", "--out", str(pts_path), "--n", "300",
                 "--Delta", "256", "--seed", "1"]) == 0
    stream_path = tmp_path / "updates.txt"
    write_stream(stream_path, [(p, +1) for p in read_points(pts_path)])
    common = ["-k", "3", "--Delta", "256", "--seed", "1"]
    outs = {}
    for name, extra in (("offline", ["--input", str(pts_path)]),
                        ("stream", ["--mode", "stream", "--backing", "sketch",
                                    "--input", str(stream_path)]),
                        ("dist", ["--mode", "dist", "--machines", "4",
                                  "--backing", "sketch",
                                  "--input", str(pts_path)])):
        outs[name] = tmp_path / f"core_{name}.txt"
        assert main(["build", *extra, "--output", str(outs[name]),
                     *common]) == 0
    assert len(read_coreset(outs["offline"])) > 0
    for name in ("stream", "dist"):
        assert outs[name].read_bytes() == outs["offline"].read_bytes(), name
