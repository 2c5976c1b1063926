"""Golden reports: the sha256 of stdout and of every written CSV for a fixed
set of CLI runs.  A change that must keep reports byte-identical keeps these
hashes; a change that alters a report on purpose updates them and says why."""

import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from fupcon import torus
from fupcon.cli import main

# name: (argv, exit code, stdout sha256, {written CSV: sha256})
GOLDEN = {
    "tower-23-11": (
        ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1/2"], 0,
        "0323b418498dbf15d9420fc9cd2dffdcc88aaa1f004ab8991b8e7809f92abc21", {},
    ),
    "tower-23-m11": (
        ["tower", "--moduli", "2,3", "--winding", "-1,1", "--epsilon", "1/2"], 0,
        "3f6459a791863fbfb770f8a6b5a3f1396c92fb370428609236cc174413f537c2", {},
    ),
    "tower-23-11-eps-1/8": (
        ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1/8"], 0,
        "b22720efc9231bda3b3032859c8c820e28f241329ce185fb2201c2cbfd193305", {},
    ),
    "tower-25-11-50-candidates": (
        ["tower", "--moduli", "2,5", "--winding", "1,1", "--epsilon", "1/2",
         "--candidates", "50"], 0,
        "0e178e379c51791623b9d065e5c6e926a5964b2585fab800fba830872215765f", {},
    ),
    "tower-25-11": (
        ["tower", "--moduli", "2,5", "--winding", "1,1", "--epsilon", "1"], 0,
        "a260d85b00cc069287827f301f60b20a4eade1963b59b2817febede9f669aab2", {},
    ),
    "tower-2357-1111": (
        ["tower", "--moduli", "2,3,5,7", "--winding", "1,1,1,1", "--epsilon", "1",
         "--size-guard", "10000000000"], 0,
        "7678a34e39686c1700e9655c3cda6e684abfdd68171dacb378949451090bb9c2", {},
    ),
    "tower-23-m11-eps-1": (
        ["tower", "--moduli", "2,3", "--winding", "1,-1", "--epsilon", "1"], 0,
        "e959ff01e1c7bdb80167e6954f0e9d6ce4fdb23b210720f10969850b8851f443", {},
    ),
    "tower-23-11-eps-1/4": (
        ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1/4"], 0,
        "58ec8603d1a395d8f3f2cd1185dcb59387f52805218020edd2ca3fd9a2217ecf", {},
    ),
    "tower-25-m11": (
        ["tower", "--moduli", "2,5", "--winding", "1,-1", "--epsilon", "1"], 0,
        "e35d7dba8cf723b6de6b73103a94d7b4c446928da57c6137c2827a110f10f9c9", {},
    ),
    "tower-23-827": (  # N1 = 216: the weighted distance over 221 levels
        ["tower", "--moduli", "2,3", "--winding", "8,27", "--epsilon", "1/2",
         "--size-guard", str(10**200)], 0,
        "2a3c320496cb81bdeccd469a5c2b0c456d4474457a190dd28c36c529b0cef06a", {},
    ),
    "tower-23-10001-1": (  # 10,006 close-sample intervals per candidate
        ["tower", "--moduli", "2,3", "--winding", "10001,1", "--epsilon", "1/2"], 0,
        "311fdb369b16cc9e440ca38d41c7030e9f0dcb63a6c122990cea1054fed51ec4", {},
    ),
    "tower-235-4-9-25": (  # N1 = 900: 905 levels
        ["tower", "--moduli", "2,3,5", "--winding", "4,9,25", "--epsilon", "1/2",
         "--size-guard", str(10**1400)], 0,
        "c1f0b30a0cb5d7883cae82684fda1757b3e224324f2f0f3db72cfdb2d561b0cc", {},
    ),
    "tower-23-16-81": (  # 1300 levels: r = 2 walks over thousands of bits
        ["tower", "--moduli", "2,3", "--winding", "16,81", "--epsilon", "1/2",
         "--size-guard", str(10**3000)], 0,
        "65869c6fcd6d4493e14ee6126f964f3846e5db80ad870e02f8798f52108708a5", {},
    ),
    "tower-235-235-n1-0-depth-4": (  # preimage levels of 30 geodesics: r = 3 coset walks
        ["tower", "--moduli", "2,3,5", "--winding", "2,3,5", "--epsilon", "1", "--n1", "0",
         "--depth", "4", "--size-guard", str(10**3000)], 1,
        "1f9bea19dbd2edcf4a4f82918793efd2975a60b8d605c9be49fc1e209357ad8a", {},
    ),
    "tower-2357-11-n1-300": (  # 304 levels, 300 of them lift levels
        ["tower", "--moduli", "2,3,5,7,11", "--winding", "2,3,5,7,11", "--epsilon", "1",
         "--n1", "300", "--size-guard", str(10**1200)], 0,
        "05f867eac0be642950cd493b412d2e0ff0c8d2e548b8a95648adf77ae3f267c4", {},
    ),
    "tower-2357-11-n1-300-w21111": (  # one entry divisible by its modulus
        ["tower", "--moduli", "2,3,5,7,11", "--winding", "2,1,1,1,1", "--epsilon", "1",
         "--n1", "300", "--size-guard", str(10**1200)], 0,
        "ee6378bab5183951cada90198577dbded4491785fa8355a3ab994a5cfa9033a1", {},
    ),
    "tower-23-11-clamped-depth-3": (  # epsilon 2 is clamped to 1
        ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "2",
         "--depth", "3", "--candidates", "7"], 0,
        "a9abaff2515ca007b9a12f278cb35841916543521dbd3872c3def73ca05767bf", {},
    ),
    "tower-25-m13-n1-1": (
        ["tower", "--moduli", "2,5", "--winding=-1,3", "--epsilon", "1",
         "--depth", "0", "--n1", "1"], 0,
        "42470639332b3567df6ba7841dc810b9b1e69dfbf2684210f9c84d43e3d8dfde", {},
    ),
    "tower-23-23-n1-0": (  # negative control: the stage is too small
        ["tower", "--moduli", "2,3", "--winding", "2,3", "--epsilon", "1/2",
         "--n1", "0"], 1,
        "6d01d5c577877ff7979af73971dbcbdb59cffe1bdb3d3b1eef2004453f64dceb", {},
    ),
    "tower-235-235-n1-0": (  # negative control: levels 3-4 have 30 components
        ["tower", "--moduli", "2,3,5", "--winding", "2,3,5", "--epsilon", "1",
         "--n1", "0"], 1,
        "81e2161e2d8d2ecf6dd0a1541d5b2a59842a86e6fce7dbecfe1fc35efbf71523", {},
    ),
    "certify-23-23": (
        ["certify", "--moduli", "2,3", "--winding", "2,3", "--range", "0..3"], 0,
        "47a7649d298ca257d5c04fa95be292cb4d414314e86a6cc4e3070c72cadf032d", {},
    ),
    "certify-25-11": (
        ["certify", "--moduli", "2,5", "--winding", "1,1", "--range", "0..2"], 0,
        "e8712aacf7c4b5c44938b1e26fd3062c68ebe4c734df5ead6c6e9ebe1356db30", {},
    ),
    "certify-235-111": (
        ["certify", "--moduli", "2,3,5", "--winding", "1,1,1", "--range", "0..0"], 0,
        "5c23fb5e37859a903fa1414eabe5fd3495cb85b5e70aab4ead4e85a126e66dfd", {},
    ),
    "certify-235-213": (
        ["certify", "--moduli", "2,3,5", "--winding", "2,1,3", "--range", "0..1"], 0,
        "31ebc6e3fd88d7ee9add1769589d5f6ce7800273f3e22a14a26615e46c48be64", {},
    ),
    "certify-235-111-stage-2": (
        ["certify", "--moduli", "2,3,5", "--winding", "1,1,1", "--range", "2..2"], 0,
        "1b0afa4b51f2665bcb06e203fde9482dd03e1e6d4a24b7ee01d66ed0acb17581", {},
    ),
    "certify-2357-1111": (
        ["certify", "--moduli", "2,3,5,7", "--winding", "1,1,1,1", "--range", "0..1",
         "--size-guard", "10000000000"], 0,
        "7be8ba75ce6c02c9c8cb7431b568d1386faf814612ce22b9ff98f0bb6dc22ec4", {},
    ),
    "certify-235711": (
        ["certify", "--moduli", "2,3,5,7,11", "--winding", "2,3,5,7,11", "--range", "0..1",
         "--size-guard", str(10**11)], 0,
        "d6842cde42fbc05e2cd49ad55b6b0f3c1b3879265777001f70bb252a07bd4762", {},
    ),
    "certify-23571113": (  # the stage-0 preimage is 30,030 parallel geodesics
        ["certify", "--moduli", "2,3,5,7,11,13", "--winding", "2,3,5,7,11,13",
         "--range", "0..1", "--size-guard", str(10**14)], 0,
        "012f23202604b221e5efa5f7cb1776bfee966807d9d36de53f7eeb9057a9e5e4", {},
    ),
    "certify-835-835": (  # the stage-0 preimage is 120 parallel geodesics
        ["certify", "--moduli", "8,3,5", "--winding", "8,3,5", "--range", "0..0"], 0,
        "acd9e01819f0ec0423790e12b146743fad144a315a6888eaeed1ad5a4b793231", {},
    ),
    "certify-49-6m4": (  # stage 0: hitting fails, yet the preimage is one geodesic
        ["certify", "--moduli", "4,9", "--winding", "6,-4", "--range", "0..1"], 0,
        "53b7c4dc13dc9322c5b01d365bc6b61dad6339e80653a76b92c8793d6d5f3448", {},
    ),
    "certify-43-21": (  # 2 has no m-adic splitting on 4: the valuation note
        ["certify", "--moduli", "4,3", "--winding", "2,1", "--range", "0..2"], 0,
        "308a495ac5ae294349f4d11d434e0e360062929d0feafcb7c538936968eee2c1", {},
    ),
    "certify-23-11-default-range": (  # no --range: stages 0..3
        ["certify", "--moduli", "2,3", "--winding", "1,1"], 0,
        "b11a09b26eb8bd224255eeed73fd5019f790830970d123516845ce6b72941b77", {},
    ),
    "certify-23-11-stage-2": (  # the single-stage form of --range
        ["certify", "--moduli", "2,3", "--winding", "1,1", "--range", "2"], 0,
        "b3c5634211a8b90a3124ebac3f4dce4340fafe922ce84f6a1b194aa7ccf07508", {},
    ),
    "certify-25-m35": (
        ["certify", "--moduli", "2,5", "--winding", "-3,5", "--range", "0..2"], 0,
        "bac9c32422935f7348362b23230364ff578af68a73bcce0a4d92cd338597b4f7", {},
    ),
    "export-image": (
        ["export", "--moduli", "2,3", "--winding", "1,2", "--image-n", "2",
         "--out-dir", "out"], 0,
        "734ad7f25fe16e4a54fed3f778787f970ac0b61f0f3381a95ddd36653812a840",
        {"image_stage_2.csv":
         "75e3e33763c7b7aa68e25b413912b01a182bdfd94af679404d78766d17596128"},
    ),
    "export-image-stage-5": (  # one image period is 7776 blocks
        ["export", "--moduli", "2,3", "--winding", "1,2", "--image-n", "5",
         "--out-dir", "out"], 0,
        "03cb75ed3513bac7c8c3dd82772f1c37fb77fb02dd9f6db7eadb2bc837894aca",
        {"image_stage_5.csv":
         "a02b3497278dcee52e1bb85d55d016c71c282a90cc0c2af4f9c5f1700350221f"},
    ),
    "export-tower": (
        ["export", "--moduli", "2,3", "--winding", "1,1", "--tower-levels",
         "--epsilon", "1/2", "--out-dir", "out"], 0,
        "26c4954834d97aa852d806883c86c37f1127542fcceb3b2bf5ab716257a3a160",
        {
            "tower_level_01.csv":
            "1014e4717fd5a2aed823fe1643eb66b49a05d1e6abdea1e47c3c480575e60ab9",
            "tower_level_02.csv":
            "100cd13465b8544a4749861d1d1d9136dcce7a6064b3fa0f233ba3a2e50b0a12",
            "tower_level_03.csv":
            "a137f82b78484de223d97c4929660e4433eb7dd12cabe8bd435da03344971a69",
            "tower_level_04.csv":
            "36232b8fbcac480a4bfec5f4babae7153670a3389c41fb46d230bda36289c440",
            "tower_level_05.csv":
            "4f081c83f6aa73589130c4fd3ad1fe72278e3d92ae99923f6a0b5dfaa0960465",
            "tower_level_06.csv":
            "29dbab21f9a7d86a54d1e2ced9cdd16e910bb1012aa67e1a4e67286ef42df596",
        },
    ),
    "export-tower-default-out-dir": (  # no --out-dir: the CSVs go to "."
        ["export", "--moduli", "2,3", "--winding", "1,1", "--tower-levels",
         "--epsilon", "1", "--depth", "0"], 0,
        "f21d1b9882f4e00e7a76f92f66644c8ee80a80f890cb7be66df3d0db8e96e24c",
        {
            "tower_level_01.csv":
            "100cd13465b8544a4749861d1d1d9136dcce7a6064b3fa0f233ba3a2e50b0a12",
            "tower_level_02.csv":
            "a137f82b78484de223d97c4929660e4433eb7dd12cabe8bd435da03344971a69",
            "tower_level_03.csv":
            "36232b8fbcac480a4bfec5f4babae7153670a3389c41fb46d230bda36289c440",
        },
    ),
    "export-tower-235-m127": (  # five forward levels on three moduli
        ["export", "--moduli", "2,3,5", "--winding=-1,2,7", "--tower-levels",
         "--epsilon", "1/8", "--depth", "1", "--out-dir", "out"], 0,
        "a480281eba6bb1b450bcf1a4ab8a43a7887e92889ce4c91967dd80940e13286e",
        {
            "tower_level_01.csv":
            "0c3c3f16f7615d49b7e6ea171582f88fdd305387bbe7b859a4860429f004d518",
            "tower_level_02.csv":
            "3c8bc174bd26da7a3abd32657085988fa1a85b85be800f925c5dd50a00c8e403",
            "tower_level_03.csv":
            "47bee4c12209f5772cdb73e389125d9ac561dc34cc0726f15f4b1c8f1ff2dcb5",
            "tower_level_04.csv":
            "414dfb35ddc9c3335de949a43e27e1e457d431bd62024c99f6eaa7cc2fb85fe8",
            "tower_level_05.csv":
            "2e7b09740f34927435797fa3eb6e76d348ca9a30800bd3a4e320599c5b123f37",
            "tower_level_06.csv":
            "20ed22dc49ef97e9036a20aba765a9e1f23af9c2ca1fd9bcb6423258965a6a3e",
            "tower_level_07.csv":
            "8f65d87cf5e8d94250ad3cff32a585cef6e4654fe09799e48a4a0b1163c99436",
        },
    ),
    "combine-2": (
        ["combine", "--loops", "3,0;-2,1"], 0,
        "5a596f9cf745d53a7c7bd372f34efbd0055edebb7fa8e40840f7712b23ac3f83", {},
    ),
    "combine-3": (
        ["combine", "--loops", "2,0,0;0,3,1;-1,1,1"], 0,
        "99b032c368e072a411a17c06d8153442e99a6ea7d5ddb25b7e9287e1689e766c", {},
    ),
    "combine-4": (  # r = 4: 483 breakpoints
        ["combine", "--loops=5,3,2,1;1,7,2,3;2,1,9,4;3,2,1,11"], 0,
        "27a921bf5d26fff3d59bd2c5052366731e06aa742655eaf587d6fdf3283dccde", {},
    ),
    "combine-guard-edge": (  # 83,002 breakpoints of 4, just under the guard
        ["combine", "--loops", "83000,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"], 0,
        "c299c875990b69ac10c1e421d6efc9b1d1620f1a2c2a53d3ad9168b501aae9d4", {},
    ),
    "combine-1": (  # r = 1: no steps, 2 breakpoints
        ["combine", "--loops", "5"], 0,
        "e4c7e62c432ed5db3d258b7d58a2c7b95d833f0abd16df51480ed9594f6735f1", {},
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(name, tmp_path, monkeypatch, capsys):
    argv, code, stdout_sha, csv_shas = GOLDEN[name]
    monkeypatch.chdir(tmp_path)  # reports name the relative --out-dir
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    out = tmp_path / "out" if "--out-dir" in argv else tmp_path
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == sorted(csv_shas)
    for fname, sha in csv_shas.items():
        assert _sha256((out / fname).read_bytes()) == sha, fname


class _OsOpenSpy:
    """The os module as fupcon.torus sees it, with every os.open call's
    file name and flags recorded."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, flags, *rest, **kw):
        self.calls.append((os.path.basename(path), flags))
        return os.open(path, flags, *rest, **kw)


# more rows, and more bytes, than any export golden writes to one file
JUNK = b"junk,junk,junk,junk,junk,junk\r\n" * 50


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if GOLDEN[n][0][0] == "export"))
def test_golden_export_rewrites_existing_csvs_in_place(name, tmp_path, monkeypatch, capsys):
    """Every export golden, run over CSVs of junk left at its file names:
    the same hashes, the same files (the hard link reads the new bytes and
    the 0o640 mode stays), and no os.open with O_TRUNC.  Without the spy, a
    return to open(path, "w") would pass every other check."""
    argv, code, stdout_sha, csv_shas = GOLDEN[name]
    work = tmp_path / "work"
    out = work / "out" if "--out-dir" in argv else work
    out.mkdir(parents=True)
    for fname in csv_shas:
        (out / fname).write_bytes(JUNK)
    linked = out / min(csv_shas)
    linked.chmod(0o640)
    link = tmp_path / "link.csv"
    os.link(linked, link)
    inode = linked.stat().st_ino
    spy = _OsOpenSpy()
    monkeypatch.setattr(torus, "os", spy)
    monkeypatch.chdir(work)  # reports name the relative --out-dir
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    assert sorted(p.name for p in out.iterdir()) == sorted(csv_shas)
    for fname, sha in csv_shas.items():
        data = (out / fname).read_bytes()
        assert _sha256(data) == sha, fname
        assert data.count(b"\n") < JUNK.count(b"\n") and len(data) < len(JUNK), fname
    assert link.read_bytes() == linked.read_bytes()
    st = linked.stat()
    assert (st.st_ino, st.st_nlink, stat.S_IMODE(st.st_mode)) == (inode, 2, 0o640)
    assert sorted(fname for fname, _ in spy.calls) == sorted(csv_shas)
    assert not any(flags & os.O_TRUNC for _, flags in spy.calls)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout_is_canonical_json(name, tmp_path, monkeypatch, capsys):
    # json's own writer as the oracle, so a re-recorded hash cannot hold a
    # renderer fault
    argv, code, _, _ = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("seed", ["0", "12345"])
@pytest.mark.parametrize("name", ["tower-23-23-n1-0", "certify-835-835"])
def test_golden_report_does_not_depend_on_the_hash_seed(name, seed, tmp_path):
    """Points hash as int tuples and sets index geodesics by integer
    anchors; no report may follow the order of a hashed container.  Both
    runs have sets of several parallel geodesics (6 and 120)."""
    argv, code, stdout_sha, _ = GOLDEN[name]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
    proc = subprocess.run(
        [sys.executable, "-m", "fupcon", *argv], cwd=tmp_path, env=env, capture_output=True
    )
    assert proc.returncode == code
    assert _sha256(proc.stdout) == stdout_sha


def test_export_report_names_an_escaped_out_dir(tmp_path, monkeypatch, capsys):
    out_dir = 'café "q" back\\slash'
    monkeypatch.chdir(tmp_path)
    argv = ["export", "--moduli", "2,3", "--winding", "1,1", "--image-n", "0",
            "--out-dir", out_dir]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.isascii()
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    report = json.loads(out)
    assert report["inputs"]["out_dir"] == out_dir
    assert report["results"]["files"] == [os.path.join(out_dir, "image_stage_0.csv")]
    assert (tmp_path / out_dir / "image_stage_0.csv").is_file()
