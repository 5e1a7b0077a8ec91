import subprocess
import sys

import numpy as np
import pytest

from evprune import cli, events
from evprune.cli import main
from evprune.events import read_events_bin
from evprune.featio import read_features
from evprune.ppm import read_ppm, write_ppm
from evprune.saliency import mask_from_text

from conftest import SCENE, square_scene


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_encoder_config(path, **overrides):
    values = dict(patch_size=16, channels=3, d_model=32, n_layers=2, n_heads=2,
                  mlp_ratio=2.0, merge_size=2, d_out=48, seed=7)
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


@pytest.fixture
def square_events(square_pair, tmp_path, capsys):
    """EVT1 file for the moving-square scene pair."""
    path_a, path_b = square_pair
    out = tmp_path / "sq.evt1"
    code, _, _ = run(capsys, "simulate", str(path_a), str(path_b),
                     "--contrast", "0.3", "--duration-us", "1000",
                     "--out", str(out))
    assert code == 0
    return path_a, out


class TestSimulate:
    def test_writes_events_and_manifest(self, square_events, capsys):
        _, evt_path = square_events
        stream = read_events_bin(evt_path.read_bytes())
        # two 32x32 regions change, 5 events per changed pixel
        assert len(stream) == 2 * 32 * 32 * 5

    def test_identical_frames_give_empty_file(self, tmp_path, capsys):
        frame = tmp_path / "same.ppm"
        frame.write_bytes(write_ppm(square_scene(16, 16)))
        out = tmp_path / "none.evt1"
        code, stdout, _ = run(capsys, "simulate", str(frame), str(frame),
                              "--contrast", "0.2", "--duration-us", "100",
                              "--out", str(out))
        assert code == 0
        assert "n_events=0" in stdout
        assert len(out.read_bytes()) == 16

    def test_determinism_byte_identical(self, square_pair, tmp_path, capsys):
        path_a, path_b = square_pair
        blobs, logs = [], []
        for name in ("one.evt1", "two.evt1"):
            out = tmp_path / name
            code, stdout, _ = run(capsys, "simulate", str(path_a), str(path_b),
                                  "--contrast", "0.3", "--duration-us", "1000",
                                  "--out", str(out))
            assert code == 0
            blobs.append(out.read_bytes())
            logs.append(stdout.replace(name, "X"))
        assert blobs[0] == blobs[1]
        assert logs[0] == logs[1]

    def test_mismatched_dims_exit_1(self, tmp_path, capsys):
        small = tmp_path / "small.ppm"
        small.write_bytes(write_ppm(np.zeros((4, 4, 3), dtype=np.uint8)))
        big = tmp_path / "big.ppm"
        big.write_bytes(write_ppm(np.zeros((8, 8, 3), dtype=np.uint8)))
        code, _, err = run(capsys, "simulate", str(small), str(big),
                           "--contrast", "0.2", "--duration-us", "10",
                           "--out", str(tmp_path / "x.evt1"))
        assert code == 1
        assert "error" in err

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", str(tmp_path / "nope.ppm"),
                         str(tmp_path / "nope.ppm"), "--contrast", "0.2",
                         "--duration-us", "10", "--out", str(tmp_path / "x.evt1"))
        assert code == 2


class TestMask:
    def test_moving_square_mask(self, square_events, tmp_path, capsys):
        image, evt = square_events
        out_mask = tmp_path / "m.txt"
        code, stdout, _ = run(capsys, "mask", str(image), str(evt),
                              "--tau", "0.125", "--patch-size", "16",
                              "--out-mask", str(out_mask))
        assert code == 0
        assert "retained_patches=8" in stdout
        mask = mask_from_text(out_mask.read_text())
        # all 8 patches with events (old and new square position), nothing else
        want = np.zeros((8, 8), dtype=np.uint8)
        want[1:3, 1:3] = 1
        want[1:3, 4:6] = 1
        assert np.array_equal(mask.bits, want)

    def test_tau_one_keeps_image_byte_identical(self, square_events, tmp_path, capsys):
        image, evt = square_events
        out_img = tmp_path / "masked.ppm"
        code, _, _ = run(capsys, "mask", str(image), str(evt),
                         "--tau", "1.0", "--patch-size", "16",
                         "--out-image", str(out_img))
        assert code == 0
        assert out_img.read_bytes() == image.read_bytes()

    def test_empty_events_give_raster_prefix(self, square_events, tmp_path, capsys):
        image, _ = square_events
        empty = tmp_path / "empty.csv"
        empty.write_text(f"# width {SCENE}\n# height {SCENE}\n")
        out_mask = tmp_path / "m.txt"
        code, _, _ = run(capsys, "mask", str(image), str(empty),
                         "--tau", "0.25", "--patch-size", "16",
                         "--out-mask", str(out_mask))
        assert code == 0
        bits = mask_from_text(out_mask.read_text()).bits
        assert bits.ravel()[:16].tolist() == [1] * 16
        assert bits.ravel()[16:].tolist() == [0] * 48

    def test_window_restricts_events(self, square_events, tmp_path, capsys):
        image, evt = square_events
        out_mask = tmp_path / "m.txt"
        # events are spread over [0, 1000); an empty late window sees none
        code, _, _ = run(capsys, "mask", str(image), str(evt),
                         "--tau", "0.125", "--patch-size", "16",
                         "--window", "999:1000", "--out-mask", str(out_mask))
        assert code == 0
        bits = mask_from_text(out_mask.read_text()).bits
        assert bits.ravel()[:8].tolist() == [1] * 8  # raster prefix fallback

    def test_bad_tau_exit_1_and_no_output(self, square_events, tmp_path, capsys):
        image, evt = square_events
        out_mask = tmp_path / "m.txt"
        code, _, _ = run(capsys, "mask", str(image), str(evt),
                         "--tau", "1.5", "--patch-size", "16",
                         "--out-mask", str(out_mask))
        assert code == 1
        assert not out_mask.exists()

    def test_corrupt_event_file_exit_2(self, square_events, tmp_path, capsys):
        image, evt = square_events
        bad = tmp_path / "bad.evt1"
        bad.write_bytes(evt.read_bytes()[:-3])
        code, _, _ = run(capsys, "mask", str(image), str(bad),
                         "--tau", "0.5", "--patch-size", "16",
                         "--out-mask", str(tmp_path / "m.txt"))
        assert code == 2

    def test_non_utf8_event_file_exit_2(self, square_events, tmp_path, capsys):
        image, _ = square_events
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,1,1,1\n\xff\xfe,1,1,1\n")
        code, _, err = run(capsys, "mask", str(image), str(bad),
                           "--tau", "0.5", "--patch-size", "16",
                           "--out-mask", str(tmp_path / "m.txt"))
        assert code == 2
        assert "UTF-8" in err


class TestEncode:
    def test_tau_one_packed_equals_dense(self, square_events, tmp_path, capsys):
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg")
        out_p = tmp_path / "p.bin"
        out_d = tmp_path / "d.bin"
        assert run(capsys, "encode", str(image), str(evt), "--tau", "1.0",
                   "--config", str(cfg), "--mode", "packed",
                   "--out", str(out_p))[0] == 0
        assert run(capsys, "encode", str(image), str(evt),
                   "--config", str(cfg), "--mode", "dense",
                   "--out", str(out_d))[0] == 0
        assert out_p.read_bytes() == out_d.read_bytes()

    def test_half_tau_token_count(self, square_events, tmp_path, capsys):
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg")
        code, stdout, _ = run(capsys, "encode", str(image), str(evt),
                              "--tau", "0.5", "--config", str(cfg),
                              "--mode", "packed", "--out", str(tmp_path / "f.bin"))
        assert code == 0
        # 64 patches; ceil(0.5 * 16 cells) * 4 = 32 = ceil(0.5 * 64)
        assert "n_tokens=32" in stdout
        assert "n_merged=8" in stdout

    def test_packed_matches_oracle_features(self, square_events, tmp_path, capsys):
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg")
        out_p = tmp_path / "p.bin"
        out_o = tmp_path / "o.bin"
        for mode, out in (("packed", out_p), ("oracle", out_o)):
            assert run(capsys, "encode", str(image), str(evt), "--tau", "0.5",
                       "--config", str(cfg), "--mode", mode,
                       "--out", str(out))[0] == 0
        packed = read_features(out_p.read_bytes())
        oracle = read_features(out_o.read_bytes())
        rel = np.abs(packed - oracle) / np.maximum(np.abs(oracle), 1e-9)
        assert rel.max() <= 1e-5

    def test_env_seed_override_changes_features(self, square_events, tmp_path,
                                                capsys, monkeypatch):
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg", seed=7)
        out_a = tmp_path / "a.bin"
        out_b = tmp_path / "b.bin"
        assert run(capsys, "encode", str(image), str(evt), "--config", str(cfg),
                   "--mode", "dense", "--out", str(out_a))[0] == 0
        monkeypatch.setenv("EVPRUNE_SEED", "99")
        code, stdout, _ = run(capsys, "encode", str(image), str(evt),
                              "--config", str(cfg), "--mode", "dense",
                              "--out", str(out_b))
        assert code == 0
        assert "param.seed=99" in stdout
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_bad_config_exit_2(self, square_events, tmp_path, capsys):
        image, evt = square_events
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("patch_size = 16\n")
        code, _, _ = run(capsys, "encode", str(image), str(evt),
                         "--config", str(cfg), "--out", str(tmp_path / "f.bin"))
        assert code == 2


class TestAtomicWrite:
    def simulate(self, capsys, pair, out):
        return run(capsys, "simulate", str(pair[0]), str(pair[1]), "--contrast", "0.3",
                   "--duration-us", "1000", "--out", str(out))

    def test_failed_rename_leaves_no_temporary_file(self, square_pair, tmp_path,
                                                    capsys, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, _, err = self.simulate(capsys, square_pair, out_dir / "ev.evt1")
        assert code == 2
        assert "rename refused" in err
        assert list(out_dir.iterdir()) == []

    def test_directory_target_leaves_no_temporary_file(self, square_pair, tmp_path, capsys):
        out_dir = tmp_path / "out"
        (out_dir / "ev.evt1").mkdir(parents=True)
        code, _, _ = self.simulate(capsys, square_pair, out_dir / "ev.evt1")
        assert code == 2
        assert [p.name for p in out_dir.iterdir()] == ["ev.evt1"]

    def test_existing_tmp_sibling_is_untouched(self, square_pair, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "ev.evt1.tmp").write_bytes(b"keep")
        code, _, _ = self.simulate(capsys, square_pair, out_dir / "ev.evt1")
        assert code == 0
        assert (out_dir / "ev.evt1.tmp").read_bytes() == b"keep"
        assert sorted(p.name for p in out_dir.iterdir()) == ["ev.evt1", "ev.evt1.tmp"]


def test_event_paths_build_no_event_objects(square_pair, tmp_path, capsys, monkeypatch):
    """simulate, mask and encode work on the stream's columns alone."""
    def no_event(*args, **kwargs):
        raise AssertionError("an Event object was built")

    monkeypatch.setattr(events, "Event", no_event)
    image = square_pair[1]
    evt = tmp_path / "ev.evt1"
    csv = tmp_path / "ev.csv"
    csv.write_text(f"# width {SCENE}\n# height {SCENE}\nt,x,y,p\n5,70,20,1\n9,3,4,0\n")
    cfg = write_encoder_config(tmp_path / "enc.cfg")
    assert run(capsys, "simulate", str(square_pair[0]), str(image), "--contrast", "0.3",
               "--duration-us", "1000", "--out", str(evt))[0] == 0
    for events_file in (evt, csv):
        assert run(capsys, "mask", str(image), str(events_file), "--tau", "0.5",
                   "--patch-size", "16", "--window", "0:800",
                   "--out-mask", str(tmp_path / "m.txt"))[0] == 0
        assert run(capsys, "encode", str(image), str(events_file), "--tau", "0.5",
                   "--config", str(cfg), "--out", str(tmp_path / "f.bin"))[0] == 0


class TestFlops:
    def test_tau_zero_is_zero_reduction(self, capsys):
        code, stdout, _ = run(capsys, "flops", "--profile", "qwen2vl_2b_like",
                              "--image-size", "392x392", "--tau", "0.0",
                              "--text-tokens", "59", "--baseline")
        assert code == 0
        assert "reduction.reduction_flops_pct=0.0" in stdout

    def test_tau_dropped_alias(self, capsys):
        code1, out1, _ = run(capsys, "flops", "--profile", "qwen2vl_2b_like",
                             "--image-size", "392x392", "--tau", "0.5")
        code2, out2, _ = run(capsys, "flops", "--profile", "qwen2vl_2b_like",
                             "--image-size", "392x392", "--tau-dropped", "0.5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_output_parses(self, capsys):
        import json
        code, stdout, _ = run(capsys, "flops", "--profile", "qwen2vl_7b_like",
                              "--image-size", "392x392", "--tau", "0.5",
                              "--text-tokens", "59", "--baseline", "--json")
        assert code == 0
        payload = json.loads(stdout[stdout.index("{"):])
        assert payload["report"]["flops_total"] == 2 * payload["report"]["macs_total"]
        assert "reduction_flops_pct" in payload["reduction"]

    def test_profile_from_file_path(self, tmp_path, capsys):
        prof = tmp_path / "tiny.cfg"
        prof.write_text(
            "name = tiny\nvit.d_model = 8\nvit.n_layers = 1\nvit.n_heads = 2\n"
            "vit.mlp_ratio = 2.0\nvit.patch_size = 2\nvit.merge_size = 1\n"
            "vit.channels = 3\nllm.d_model = 8\nllm.n_layers = 1\n"
            "llm.n_heads = 2\nllm.mlp_ratio = 2.0\n")
        code, stdout, _ = run(capsys, "flops", "--profile", str(prof),
                              "--image-size", "8x8", "--tau", "0.5")
        assert code == 0
        assert "manifest.param.profile=tiny" in stdout

    def test_missing_profile_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "flops", "--profile", str(tmp_path / "no.cfg"),
                         "--image-size", "8x8")
        assert code == 2

    def test_bad_image_size_exit_1(self, capsys):
        code, _, _ = run(capsys, "flops", "--profile", "qwen2vl_2b_like",
                         "--image-size", "392by392")
        assert code == 1


class TestVerify:
    def test_quick_passes(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--quick")
        assert code == 0
        assert "passed 7 of 7 suites" in stdout

    def test_injected_fault_exits_3_naming_invariant(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--quick",
                              "--inject-fault", "saliency.mask")
        assert code == 3
        assert "FAIL saliency.mask" in stdout
        assert "repro seed" in stdout


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evprune", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "evprune" in proc.stdout
