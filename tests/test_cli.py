import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evprune import cli, encoder, events
from evprune.cli import main
from evprune.encoder import (encode_packed, init_weights, load_encoder_config, merge_project,
                             patchify)
from evprune.events import accumulate, read_events_bin, resize_to, write_events_bin
from evprune.featio import read_features, write_features
from evprune.packing import pack_patches
from evprune.ppm import read_ppm, to_gray01, write_ppm
from evprune.rope2d import build_rope
from evprune.saliency import mask_from_text, patch_scores, quantile_mask

from conftest import (
    SCENE, VALID_ENCODER, VALID_PROFILE, kv_documents, near_valid_bytes, square_scene,
    stream_of)


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

    @pytest.mark.parametrize("contrast", ["inf", "nan"])
    def test_non_finite_contrast_exit_1_and_no_output(self, square_pair, tmp_path, capsys,
                                                      contrast):
        out = tmp_path / "x.evt1"
        code, _, err = run(capsys, "simulate", str(square_pair[0]), str(square_pair[1]),
                           "--contrast", contrast, "--duration-us", "10", "--out", str(out))
        assert code == 1
        assert "contrast" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("window, message", [
        ("999", "window must be 't0:t1' in microseconds, got '999'"),
        ("0:1e3", "window bounds must be integers, got '0:1e3'"),
        ("\u0660:\u0669", "window bounds must be integers, got '\u0660:\u0669'"),
        ("0:1_000", "window bounds must be integers, got '0:1_000'"),
    ], ids=["no_colon", "not_integers", "arabic_indic_digits", "underscore"])
    def test_bad_window_exit_1_and_no_output(self, square_events, tmp_path, capsys, window,
                                             message):
        image, evt = square_events
        out_mask = tmp_path / "m.txt"
        code, stdout, err = run(capsys, "mask", str(image), str(evt), "--tau", "0.5",
                                "--patch-size", "16", "--window", window,
                                "--out-mask", str(out_mask))
        assert code == 1
        assert message in err
        assert stdout == ""
        assert not out_mask.exists()

    def test_no_output_file_exit_1(self, square_events, capsys):
        image, evt = square_events
        code, stdout, err = run(capsys, "mask", str(image), str(evt), "--tau", "0.5",
                                "--patch-size", "16")
        assert code == 1
        assert "need --out-mask and/or --out-image" in err
        assert stdout == ""

    @pytest.mark.parametrize("sizes, message", [
        (["--patch-size", "0"], "patch size must be >= 1, got 0"),
        (["--patch-size", "-16"], "patch size must be >= 1, got -16"),
        (["--patch-size", "16", "--merge-size", "0"], "merge size must be >= 1, got 0"),
    ])
    def test_bad_sizes_exit_1_and_no_output(self, square_events, tmp_path, capsys, sizes,
                                            message):
        image, evt = square_events
        out_mask, out_img = tmp_path / "m.txt", tmp_path / "m.ppm"
        code, stdout, err = run(capsys, "mask", str(image), str(evt), "--tau", "0.5", *sizes,
                                "--out-mask", str(out_mask), "--out-image", str(out_img))
        assert code == 1
        assert message in err
        assert stdout == ""
        assert not out_mask.exists() and not out_img.exists()

    @pytest.mark.parametrize("edge, message", [
        (8, "patch size 16 exceeds frame 8x8"),
        (24, "patch grid 1x1 not divisible by merge size 2"),
    ])
    def test_image_smaller_than_one_merge_cell_exit_1_and_no_output(
            self, square_events, tmp_path, capsys, edge, message):
        _, evt = square_events
        image = tmp_path / "small.ppm"
        image.write_bytes(write_ppm(np.zeros((edge, edge, 3), dtype=np.uint8)))
        out_mask, out_img = tmp_path / "m.txt", tmp_path / "m.ppm"
        code, stdout, err = run(capsys, "mask", str(image), str(evt), "--tau", "0.5",
                                "--patch-size", "16", "--merge-size", "2",
                                "--out-mask", str(out_mask), "--out-image", str(out_img))
        assert code == 1
        assert message in err
        assert stdout == ""
        assert not out_mask.exists() and not out_img.exists()

    # int() takes "\u0663" (Arabic-Indic 3) and "1_0"; no file reader does
    @pytest.mark.parametrize("fill", ["abc", "0,0", "300,0,0", "\u0663,0,0", "1_0,0,0"])
    def test_bad_fill_exit_1_and_no_output(self, square_events, tmp_path, capsys, fill):
        """--fill is checked even when no masked image is written."""
        image, evt = square_events
        out_mask = tmp_path / "m.txt"
        code, stdout, err = run(capsys, "mask", str(image), str(evt),
                                "--tau", "0.5", "--patch-size", "16",
                                "--fill", fill, "--out-mask", str(out_mask))
        assert code == 1
        assert "fill must be" in err
        assert stdout == ""
        assert not out_mask.exists()

    def test_manifest_echoes_the_parsed_fill(self, square_events, tmp_path, capsys):
        image, evt = square_events
        out_img = tmp_path / "m.ppm"
        code, stdout, _ = run(capsys, "mask", str(image), str(evt), "--tau", "0.5",
                              "--patch-size", "16", "--fill", " 7,+8,9 ",
                              "--out-image", str(out_img))
        assert code == 0
        assert "manifest.param.fill=7,8,9\n" in stdout
        masked = read_ppm(out_img.read_bytes())
        assert [7, 8, 9] in masked.reshape(-1, 3).tolist()

    def test_corrupt_event_file_exit_2(self, square_events, tmp_path, capsys):
        image, evt = square_events
        bad = tmp_path / "bad.evt1"
        bad.write_bytes(evt.read_bytes()[:-3])
        code, _, _ = run(capsys, "mask", str(image), str(bad),
                         "--tau", "0.5", "--patch-size", "16",
                         "--out-mask", str(tmp_path / "m.txt"))
        assert code == 2

    @pytest.mark.parametrize("which", ["image", "events"])
    def test_number_beyond_int_conversion_exit_2(self, square_events, tmp_path, capsys, which):
        # a 5000-digit PPM width or CSV directive ended in a ValueError traceback
        image, evt = square_events
        if which == "image":
            image = tmp_path / "huge.ppm"
            image.write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3))
        else:
            evt = tmp_path / "huge.csv"
            evt.write_text("# width " + "9" * 5000 + "\n0,1,1,1\n")
        code, _, err = run(capsys, "mask", str(image), str(evt),
                           "--tau", "0.5", "--patch-size", "16",
                           "--out-mask", str(tmp_path / "m.txt"))
        assert code == 2
        assert "too long" in err or "bad width directive" in err

    def test_non_utf8_event_file_exit_2(self, square_events, tmp_path, capsys):
        image, _ = square_events
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,1,1,1\n\xff\xfe,1,1,1\n")
        code, _, err = run(capsys, "mask", str(image), str(bad),
                           "--tau", "0.5", "--patch-size", "16",
                           "--out-mask", str(tmp_path / "m.txt"))
        assert code == 2
        assert "UTF-8" in err

    def test_oversized_sensor_exit_1_before_counting(self, square_events, tmp_path,
                                                     capsys):
        image, _ = square_events
        huge = tmp_path / "huge.csv"
        huge.write_text("# width 100000\n# height 100000\n0,1,1,1\n")
        out_mask = tmp_path / "m.txt"
        code, _, err = run(capsys, "mask", str(image), str(huge),
                           "--tau", "0.5", "--patch-size", "16",
                           "--out-mask", str(out_mask))
        assert code == 1
        assert "MAX_FRAME_PIXELS" in err
        assert not out_mask.exists()

    def test_image_beyond_the_pixel_cap_exit_1(self, square_events, tmp_path, capsys,
                                               monkeypatch):
        # the event counts were resized to any image size
        image, _ = square_events
        small = tmp_path / "small.csv"
        small.write_text("# width 8\n# height 8\n0,1,1,1\n")
        monkeypatch.setattr(events, "MAX_FRAME_PIXELS", SCENE * SCENE - 1)
        code, _, err = run(capsys, "mask", str(image), str(small),
                           "--tau", "0.5", "--patch-size", "16",
                           "--out-mask", str(tmp_path / "m.txt"))
        assert code == 1
        assert f"target {SCENE}x{SCENE} exceeds MAX_FRAME_PIXELS" in err


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

    def test_gray_config_encodes_the_gray_image(self, square_events, tmp_path, capsys):
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg", channels=1)
        out = tmp_path / "f.bin"
        code, stdout, _ = run(capsys, "encode", str(image), str(evt), "--tau", "0.5",
                              "--config", str(cfg), "--mode", "packed", "--out", str(out))
        assert code == 0
        assert "n_tokens=32" in stdout
        config = load_encoder_config(cfg.read_text())
        pixels = read_ppm(image.read_bytes())
        stream = read_events_bin(evt.read_bytes())
        frame = resize_to(accumulate(stream, *stream.extent_us()), SCENE, SCENE)
        mask = quantile_mask(patch_scores(frame, 16), 0.5, config.merge_size)
        patches = patchify(to_gray01(pixels)[:, :, None], 16)
        weights = init_weights(config)
        features = encode_packed(pack_patches(patches, mask),
                                 build_rope(SCENE // 16, SCENE // 16, config.head_dim),
                                 weights, config)
        merged = merge_project(features, config, weights)
        assert out.read_bytes() == write_features(merged.tokens)

    def test_seed_comes_from_the_config_alone(self, square_events, tmp_path,
                                               capsys, monkeypatch):
        """An EVPRUNE_SEED environment variable once overrode the config's seed."""
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg", seed=7)
        outs, stdouts = [], []
        for env_seed in (None, "99"):
            if env_seed is not None:
                monkeypatch.setenv("EVPRUNE_SEED", env_seed)
            out = tmp_path / f"{env_seed}.bin"
            code, stdout, _ = run(capsys, "encode", str(image), str(evt), "--config",
                                  str(cfg), "--mode", "dense", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
            stdouts.append(stdout.replace(str(out), "OUT"))
        assert "param.seed=7" in stdouts[0]
        assert stdouts[0] == stdouts[1]
        assert outs[0] == outs[1]

    def test_weights_follow_the_config_text_not_its_path(self, square_events, tmp_path,
                                                         capsys):
        image, evt = square_events
        cfg = tmp_path / "enc.cfg"

        def dump(seed, fresh=False):
            write_encoder_config(cfg, seed=seed)
            if fresh:
                encoder._drawn.cache_clear()
            out = tmp_path / "f.bin"
            assert run(capsys, "encode", str(image), str(evt), "--config", str(cfg),
                       "--out", str(out))[0] == 0
            return out.read_bytes()

        first = dump(7)
        second = dump(8)
        assert second != first
        assert dump(8, fresh=True) == second
        assert dump(7) == first

    @pytest.mark.parametrize("mode", ["dense", "packed", "oracle"])
    @pytest.mark.parametrize("tau", ["nan", "7"])
    def test_bad_tau_exit_1_and_no_output(self, square_events, tmp_path, capsys, tau, mode):
        image, evt = square_events
        out = tmp_path / "f.bin"
        code, stdout, err = run(capsys, "encode", str(image), str(evt), "--tau", tau,
                                "--config", str(write_encoder_config(tmp_path / "enc.cfg")),
                                "--mode", mode, "--out", str(out))
        assert code == 1
        assert "tau must be in [0, 1]" in err
        assert stdout == ""
        assert not out.exists()

    def test_bad_config_exit_2(self, square_events, tmp_path, capsys):
        image, evt = square_events
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("patch_size = 16\n")
        code, _, _ = run(capsys, "encode", str(image), str(evt),
                         "--config", str(cfg), "--out", str(tmp_path / "f.bin"))
        assert code == 2

    def test_non_ascii_config_exit_2(self, square_events, tmp_path, capsys):
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg")
        cfg.write_bytes(b"# caf\xe9\n" + cfg.read_bytes())
        out = tmp_path / "f.bin"
        code, _, err = run(capsys, "encode", str(image), str(evt),
                           "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "non-ASCII" in err
        assert not out.exists()

    def test_untiled_merge_grid_exit_1_before_forward(self, square_events, tmp_path,
                                                      capsys, monkeypatch):
        """A 144x64 px image at patch 16 has a 4x9 patch grid, which 2x2 merge
        cells do not tile: dense mode fails too, before the encoder runs."""
        _, evt = square_events
        image = tmp_path / "tall.ppm"
        image.write_bytes(write_ppm(np.zeros((64, 144, 3), dtype=np.uint8)))

        def never(*args, **kwargs):
            raise AssertionError("encoder forward reached")

        monkeypatch.setattr(encoder, "_forward", never)
        out = tmp_path / "f.bin"
        code, stdout, err = run(capsys, "encode", str(image), str(evt), "--mode", "dense",
                                "--config", str(write_encoder_config(tmp_path / "enc.cfg")),
                                "--out", str(out))
        assert code == 1
        assert "not divisible by merge size 2" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("overrides,message", [
        (dict(mlp_ratio=1e308), "mlp_ratio must be finite"),
        (dict(d_model=4000000), "MAX_ENCODER_PARAMS"),
    ])
    def test_oversized_config_exit_1(self, square_events, tmp_path, capsys,
                                     overrides, message):
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg", **overrides)
        out = tmp_path / "f.bin"
        code, _, err = run(capsys, "encode", str(image), str(evt),
                           "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert message in err
        assert not out.exists()


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

    def test_symlinked_output_keeps_its_link_and_updates_its_target(
            self, square_pair, tmp_path, capsys):
        # the rename replaced the link with a regular file and left the target stale
        real, link = tmp_path / "real.evt1", tmp_path / "link.evt1"
        real.write_bytes(b"stale")
        link.symlink_to(real.name)
        code, _, _ = self.simulate(capsys, square_pair, link)
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_bytes()[:4] == events.EVT1_MAGIC
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [real.name, link.name, *(p.name for p in square_pair)])

    def test_output_keeps_its_mode(self, square_pair, tmp_path, capsys):
        # the rename left a new file at the umask's mode
        out = tmp_path / "out.evt1"
        out.write_bytes(b"old")
        out.chmod(0o600)
        code, _, _ = self.simulate(capsys, square_pair, out)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes()[:4] == events.EVT1_MAGIC

    def test_hard_linked_output_is_written_through_every_link(self, square_pair, tmp_path,
                                                              capsys):
        # the rename cut the link: the other name kept the old bytes
        out, hard = tmp_path / "out.evt1", tmp_path / "hard.evt1"
        out.write_bytes(b"old")
        os.link(out, hard)
        code, _, _ = self.simulate(capsys, square_pair, out)
        assert code == 0
        assert out.stat().st_nlink == 2 and out.samefile(hard)
        assert hard.read_bytes()[:4] == events.EVT1_MAGIC
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [out.name, hard.name, *(p.name for p in square_pair)])

    def test_fifo_output_stays_a_fifo_and_yields_the_dump(self, square_events, tmp_path,
                                                          capsys):
        # the rename replaced the FIFO with a regular file, and its reader saw nothing
        image, evt = square_events
        cfg = write_encoder_config(tmp_path / "enc.cfg")
        fifo, regular = tmp_path / "features.fifo", tmp_path / "features.bin"
        os.mkfifo(fifo)

        def encode(out):
            return run(capsys, "encode", str(image), str(evt), "--config", str(cfg),
                       "--mode", "dense", "--out", str(out))[0]

        assert encode(regular) == 0
        want = regular.read_bytes()
        assert len(want) < 1 << 16  # fits the pipe's buffer, so the write cannot block
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert encode(fifo) == 0
            assert stat.S_ISFIFO(fifo.lstat().st_mode)
            assert os.read(reader, 1 << 16) == want
        finally:
            os.close(reader)


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

    TINY_PROFILE = (
        "name = tiny\nvit.d_model = 8\nvit.n_layers = 1\nvit.n_heads = 2\n"
        "vit.mlp_ratio = 2.0\nvit.patch_size = 2\nvit.merge_size = 1\n"
        "vit.channels = 3\nllm.d_model = 8\nllm.n_layers = 1\n"
        "llm.n_heads = 2\nllm.mlp_ratio = 2.0\n")

    def test_profile_from_file_path(self, tmp_path, capsys):
        prof = tmp_path / "tiny.cfg"
        prof.write_text(self.TINY_PROFILE)
        code, stdout, _ = run(capsys, "flops", "--profile", str(prof),
                              "--image-size", "8x8", "--tau", "0.5")
        assert code == 0
        assert "manifest.param.profile=tiny" in stdout

    @pytest.mark.parametrize("key", ["vit.mlp_ratio", "llm.mlp_ratio"])
    def test_overflowing_mlp_width_exit_1(self, tmp_path, capsys, key):
        prof = tmp_path / "tiny.cfg"
        prof.write_text(self.TINY_PROFILE.replace(f"{key} = 2.0", f"{key} = 1e308"))
        code, _, err = run(capsys, "flops", "--profile", str(prof),
                           "--image-size", "8x8", "--tau", "0.5")
        assert code == 1
        assert "mlp_ratio must be finite" in err

    def test_non_ascii_profile_exit_2(self, tmp_path, capsys):
        prof = tmp_path / "tiny.cfg"
        prof.write_bytes("name = tin\u00ff\n".encode("latin-1"))
        code, _, err = run(capsys, "flops", "--profile", str(prof),
                           "--image-size", "8x8")
        assert code == 2
        assert "non-ASCII" in err

    def test_missing_profile_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "flops", "--profile", str(tmp_path / "no.cfg"),
                         "--image-size", "8x8")
        assert code == 2

    def test_bad_image_size_exit_1(self, capsys):
        code, _, _ = run(capsys, "flops", "--profile", "qwen2vl_2b_like",
                         "--image-size", "392by392")
        assert code == 1

    # int() takes Arabic-Indic digits and "3_92"; no file reader does
    @pytest.mark.parametrize("size", ["\u0663\u0669\u0662x392", "3_92x392"])
    def test_image_size_outside_the_integer_grammar_exit_1(self, capsys, size):
        code, stdout, err = run(capsys, "flops", "--profile", "qwen2vl_2b_like",
                                "--image-size", size)
        assert code == 1
        assert f"image size must be HxW (e.g. 448x448), got {size!r}" in err
        assert stdout == ""


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


class TestParser:
    def test_shared_parser_is_reentrant(self, square_pair, tmp_path, capsys, monkeypatch):
        """Calls after a rejected and a non-default call give what calls
        through a freshly built parser give; no default leaks between calls."""
        path_a, path_b = square_pair
        evt, mask, image = (str(tmp_path / name) for name in ("ev.evt1", "m.txt", "m.ppm"))
        calls = [
            ["simulate", str(path_a), str(path_b), "--contrast", "0.3",
             "--duration-us", "1000", "--out", evt],
            ["mask", str(path_b), evt, "--tau", "0.25", "--patch-size", "16",
             "--out-mask", mask, "--out-image", image],
        ]

        def outputs():
            got = [run(capsys, *argv) for argv in calls]
            return got + [Path(path).read_bytes() for path in (evt, mask, image)]

        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        fresh = outputs()
        monkeypatch.undo()
        with pytest.raises(SystemExit) as exc:
            main(["mask", str(path_b), evt, "--tau", "0.25", "--patch-size", "sixteen"])
        assert exc.value.code == 2
        code, _, _ = run(capsys, "mask", str(path_b), evt, "--tau", "0.5", "--patch-size", "16",
                         "--merge-size", "2", "--fill", "9,9,9", "--window", "0:500",
                         "--out-mask", mask, "--out-image", image)
        assert code == 0
        assert outputs() == fresh
        args = cli._PARSER.parse_args(calls[1])
        assert (args.merge_size, args.fill, args.window) == (1, "0,0,0", None)

    # int() and float() take each of these spellings; errors.integer and errors.real none
    @pytest.mark.parametrize("spelling", ["5_9", "\u0665\u0669", "0_3", "\u0660.\u0663"])
    @pytest.mark.parametrize("subcommand, flag", [
        ("simulate", "--contrast"), ("simulate", "--duration-us"), ("mask", "--tau"),
        ("mask", "--patch-size"), ("mask", "--merge-size"), ("encode", "--tau"),
        ("flops", "--tau"), ("flops", "--text-tokens"), ("flops", "--decode"),
    ])
    def test_number_flag_outside_the_grammar_exits_2_and_writes_nothing(
            self, tmp_path, capsys, subcommand, flag, spelling):
        out = str(tmp_path / "out")
        valid = {
            "simulate": ["a.ppm", "b.ppm", "--contrast", "0.3", "--duration-us", "10",
                         "--out", out],
            "mask": ["img.ppm", "ev.csv", "--tau", "0.5", "--patch-size", "16",
                     "--out-mask", out],
            "encode": ["img.ppm", "ev.csv", "--config", "enc.cfg", "--out", out],
            "flops": ["--profile", "qwen2vl_2b_like", "--image-size", "8x8"],
        }[subcommand]
        with pytest.raises(SystemExit) as exc:
            main([subcommand, *valid, flag, spelling])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert "usage: evprune " + subcommand in captured.err
        assert f"argument {flag}" in captured.err and f"{spelling!r}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evprune", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "evprune" in proc.stdout

    def test_simulate_loads_no_scipy(self, square_pair, tmp_path):
        """scipy.special is imported by the encoder's GELU alone, the lanes'
        thread pool by the forward, and BLAS's thread-count setter is looked
        up by a forward alone, so importing the CLI and running simulate and
        then mask leave scipy and concurrent.futures unloaded and the setter
        unresolved."""
        script = ("import sys\n"
                  "from evprune import cli, encoder\n"
                  "unloaded = {'scipy', 'concurrent.futures'}\n"
                  "def untouched(when):\n"
                  "    assert not unloaded & sys.modules.keys(), when\n"
                  "    assert encoder._blas_threads.cache_info().currsize == 0, when\n"
                  "untouched('after import')\n"
                  "simulate, mask = sys.argv[1:10], sys.argv[10:]\n"
                  "assert cli.main(simulate) == 0\n"
                  "untouched('after simulate')\n"
                  "assert cli.main(mask) == 0\n"
                  "untouched('after mask')\n")
        evt = tmp_path / "ev.evt1"
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", str(square_pair[0]), str(square_pair[1]),
             "--contrast", "0.3", "--duration-us", "1000", "--out", str(evt),
             "mask", str(square_pair[1]), str(evt), "--tau", "0.5", "--patch-size", "16",
             "--out-mask", str(tmp_path / "m.txt"), "--out-image", str(tmp_path / "m.ppm")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert evt.stat().st_size > 0 and (tmp_path / "m.txt").stat().st_size > 0

    def test_a_one_lane_encode_gives_blas_its_count_back(self, square_events, tmp_path):
        """With BLAS pinned to one thread, a one-lane packed encode (32 tokens,
        one attention block) runs the loaded OpenBLAS on every CPU of the
        affinity mask and leaves it on one thread again."""
        if encoder._blas_threads() is None or encoder._CPUS < 2:
            pytest.skip("no OpenBLAS thread-count setter found, or one CPU")
        image, evt = square_events
        script = ("import sys\n"
                  "from evprune import cli, encoder\n"
                  "get, set_ = encoder._blas_threads()\n"
                  "seen = []\n"
                  "encoder._blas_threads = lambda: (get, lambda n: (seen.append(n), set_(n)))\n"
                  "assert get() == 1, get()\n"
                  "assert cli.main(sys.argv[1:]) == 0\n"
                  "assert seen == [encoder._CPUS, 1], seen\n"
                  "assert get() == 1, get()\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "encode", str(image), str(evt), "--tau", "0.5",
             "--config", str(write_encoder_config(tmp_path / "enc.cfg")), "--mode", "packed",
             "--out", str(tmp_path / "f.bin")],
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "n_tokens=32" in proc.stdout


def files(valid):
    """A valid file half the time, so later stages are reached, else a near-valid one."""
    return st.one_of(st.just(valid), near_valid_bytes(valid))


# Tiny inputs: a 4x4 frame pair, events on that sensor, and the 16-wide
# one-layer encoder config; replacement values stay small, so no accepted
# config draws more than a few thousand weights.
FRAME_A = files(write_ppm(np.arange(48, dtype=np.uint8).reshape(4, 4, 3)))
FRAME_B = files(write_ppm(np.arange(48, dtype=np.uint8).reshape(4, 4, 3)[::-1] * 5))
EVENT_FILES = st.one_of(
    files(b"# width 4\n# height 4\n0,1,1,1\n5,2,3,0\n9,0,2,1\n"),
    files(write_events_bin(stream_of(4, 4, (0, 1, 1, 1), (5, 2, 3, -1)))),
)
SMALL_VALUES = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["2.0", "0.5", "nan", "1e999", "x", "", "1_0", "\u0663"]),
)
FUZZ = settings(deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFileFuzz:
    """Any input file gives exit code 0, 1 or 2; no other exception escapes."""

    @FUZZ
    @given(frame_a=FRAME_A, frame_b=FRAME_B)
    def test_simulate(self, tmp_path, frame_a, frame_b):
        (tmp_path / "a.ppm").write_bytes(frame_a)
        (tmp_path / "b.ppm").write_bytes(frame_b)
        assert main(["simulate", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm"),
                     "--contrast", "0.3", "--duration-us", "100",
                     "--out", str(tmp_path / "out.evt1")]) in (0, 1, 2)

    @FUZZ
    @given(image=FRAME_A, events=EVENT_FILES)
    def test_mask(self, tmp_path, image, events):
        (tmp_path / "img.ppm").write_bytes(image)
        (tmp_path / "ev").write_bytes(events)
        assert main(["mask", str(tmp_path / "img.ppm"), str(tmp_path / "ev"),
                     "--tau", "0.5", "--patch-size", "2",
                     "--out-mask", str(tmp_path / "m.txt"),
                     "--out-image", str(tmp_path / "m.ppm")]) in (0, 1, 2)

    @FUZZ
    @given(image=FRAME_A, events=EVENT_FILES,
           config=kv_documents(VALID_ENCODER, SMALL_VALUES),
           mode=st.sampled_from(["dense", "packed", "oracle"]))
    def test_encode(self, tmp_path, image, events, config, mode):
        (tmp_path / "img.ppm").write_bytes(image)
        (tmp_path / "ev").write_bytes(events)
        (tmp_path / "enc.cfg").write_bytes(config.encode())
        assert main(["encode", str(tmp_path / "img.ppm"), str(tmp_path / "ev"),
                     "--config", str(tmp_path / "enc.cfg"), "--mode", mode,
                     "--tau", "0.5", "--out", str(tmp_path / "f.bin")]) in (0, 1, 2)

    @FUZZ
    @given(profile=kv_documents(VALID_PROFILE, SMALL_VALUES))
    def test_flops(self, tmp_path, profile):
        (tmp_path / "p.cfg").write_bytes(profile.encode())
        assert main(["flops", "--profile", str(tmp_path / "p.cfg"),
                     "--image-size", "8x8", "--tau-dropped", "0.5",
                     "--baseline"]) in (0, 1, 2)
