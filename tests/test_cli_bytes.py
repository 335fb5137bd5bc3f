"""One SHA-256 per case of the bytes ``sweep`` and ``analyze`` write.

A case is one in-process ``cli.main`` run. The sweep cases cover every sweep
axis at 1, 2 and 100 steps; the analyze cases read one seeded record, with
and without a bootstrap interval. Each case runs in both formats, once to
stdout and once to an ``--out`` file, and must exit 0.

Run as a script, ``PYTHONPATH=src python tests/test_cli_bytes.py DIR`` writes
each case's bytes to ``DIR/<case>``, so the output of two trees can be
compared with ``diff -r``. A deliberate change of output is re-pinned only
after such a diff names every changed case and why it changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from clickstats.cli import main

# axis: (state, detectors, eta, from, to) of a sweep; a one-step sweep runs at ``from``.
SWEEPS = {
    "eta": ('{"kind":"coherent","mean_photons":1.0}', "8", "1.0", "0.1", "1.0"),
    "nu": ('{"kind":"fock","n":1}', "8", "0.7", "0.0", "0.1"),
    "N": ('{"kind":"thermal","mean_photons":2.0}', "1", "0.9", "1", "100"),
    "mean_photons": ('{"kind":"coherent","mean_photons":1.0}', "16", "0.8", "0.1", "5.0"),
    "r": ('{"kind":"squeezed_vacuum","r":0.5}', "8", "0.6", "0.1", "1.0"),
}
STEPS = (1, 2, 100)
RECORD = ["simulate", "--state", '{"kind":"fock","n":2}', "--detectors", "4",
          "--eta", "0.7", "--nu", "0.01", "--trials", "2000", "--seed", "11"]
BOOTSTRAP = ["--bootstrap", "200", "--seed", "5"]
DIGESTS = {
    "analyze-bootstrap-structured-out": "24a5aaf096c91044ecd62aec8edc8421f78e0524465a72f029f81c8124cc8741",
    "analyze-bootstrap-structured-stdout": "24a5aaf096c91044ecd62aec8edc8421f78e0524465a72f029f81c8124cc8741",
    "analyze-bootstrap-table-out": "e7d5dc2439e50ff4b886fdd7a2d656665b148a4b48b6af358c5c73a5f7b5f028",
    "analyze-bootstrap-table-stdout": "e7d5dc2439e50ff4b886fdd7a2d656665b148a4b48b6af358c5c73a5f7b5f028",
    "analyze-structured-out": "719bbe62f71603e32301694d30ccac3b948a5ee227697c32d1c7b890623a7d88",
    "analyze-structured-stdout": "719bbe62f71603e32301694d30ccac3b948a5ee227697c32d1c7b890623a7d88",
    "analyze-table-out": "e8f916f273c240c5dfecf53e174d71f237fa963081940cac4b7759c431b2865c",
    "analyze-table-stdout": "e8f916f273c240c5dfecf53e174d71f237fa963081940cac4b7759c431b2865c",
    "sweep-N-1-structured-out": "cd2695bd97cd3af6b6e075c792396329ce41c242ec54a418baf9c0010b288556",
    "sweep-N-1-structured-stdout": "cd2695bd97cd3af6b6e075c792396329ce41c242ec54a418baf9c0010b288556",
    "sweep-N-1-table-out": "b4db35f5edebb7f3dd7481020330a0a18e22a4de1aa0a76319f558a8db425d86",
    "sweep-N-1-table-stdout": "b4db35f5edebb7f3dd7481020330a0a18e22a4de1aa0a76319f558a8db425d86",
    "sweep-N-100-structured-out": "619a3ddebea7375e41c1c4757f1729d67fe289faa4489db310308a2f53888ffc",
    "sweep-N-100-structured-stdout": "619a3ddebea7375e41c1c4757f1729d67fe289faa4489db310308a2f53888ffc",
    "sweep-N-100-table-out": "39e5c226dd5d21034c2465e70dec63ffa07a8721c1e43140ffcc4dcbc09b3f87",
    "sweep-N-100-table-stdout": "39e5c226dd5d21034c2465e70dec63ffa07a8721c1e43140ffcc4dcbc09b3f87",
    "sweep-N-2-structured-out": "ddf1df9e915fa568410fc98de2dcf4e8f82686ee7946adfa1fd02d1548400c00",
    "sweep-N-2-structured-stdout": "ddf1df9e915fa568410fc98de2dcf4e8f82686ee7946adfa1fd02d1548400c00",
    "sweep-N-2-table-out": "e1bc4b201346c74bef5b0a2a86221bc3d53c1b93f3b4f5e0ef99032001f3d75d",
    "sweep-N-2-table-stdout": "e1bc4b201346c74bef5b0a2a86221bc3d53c1b93f3b4f5e0ef99032001f3d75d",
    "sweep-eta-1-structured-out": "2c9e871428052fad585608827af4ff4269757bea7718277658fa84a759d63647",
    "sweep-eta-1-structured-stdout": "2c9e871428052fad585608827af4ff4269757bea7718277658fa84a759d63647",
    "sweep-eta-1-table-out": "c881397b82114a441131cbfd5fdbb9ec44ece397473ea1f240ae0ae005a8d113",
    "sweep-eta-1-table-stdout": "c881397b82114a441131cbfd5fdbb9ec44ece397473ea1f240ae0ae005a8d113",
    "sweep-eta-100-structured-out": "546409f9300fe497b7d4769e85f936e6539d8fd383ebf3d2fd2965ddbeeb3c4e",
    "sweep-eta-100-structured-stdout": "546409f9300fe497b7d4769e85f936e6539d8fd383ebf3d2fd2965ddbeeb3c4e",
    "sweep-eta-100-table-out": "f4d55689e30fbe1fb415a574a9a3af86ce6c8b107b16f1b2bc53fb1859be46ef",
    "sweep-eta-100-table-stdout": "f4d55689e30fbe1fb415a574a9a3af86ce6c8b107b16f1b2bc53fb1859be46ef",
    "sweep-eta-2-structured-out": "72ae379f2d83fbb6082e37e7a0874d8a297cc66ff75935c34bda7af2b1d1db4c",
    "sweep-eta-2-structured-stdout": "72ae379f2d83fbb6082e37e7a0874d8a297cc66ff75935c34bda7af2b1d1db4c",
    "sweep-eta-2-table-out": "5a06c38998e971227074ef5b9fee271d64745903af38583950e3fd311d972c3b",
    "sweep-eta-2-table-stdout": "5a06c38998e971227074ef5b9fee271d64745903af38583950e3fd311d972c3b",
    "sweep-mean_photons-1-structured-out": "a6f9ffb3b20acb4683af97078fe454ad32deb2c7e6471a4750c36f2b6c5a96af",
    "sweep-mean_photons-1-structured-stdout": "a6f9ffb3b20acb4683af97078fe454ad32deb2c7e6471a4750c36f2b6c5a96af",
    "sweep-mean_photons-1-table-out": "4b6f6fa5dd7193b3243f7fa5b30557f2817a6cf02dd0fc2c02b465fcb5c2715b",
    "sweep-mean_photons-1-table-stdout": "4b6f6fa5dd7193b3243f7fa5b30557f2817a6cf02dd0fc2c02b465fcb5c2715b",
    "sweep-mean_photons-100-structured-out": "419fc478a9bcf24050759fdba503e970dc925c9d09747391cd5dcfe5cad9c4bf",
    "sweep-mean_photons-100-structured-stdout": "419fc478a9bcf24050759fdba503e970dc925c9d09747391cd5dcfe5cad9c4bf",
    "sweep-mean_photons-100-table-out": "6eb9e255fdc8222429bf0fedcf269cd67d3f58e9427890d3d29a734f24e10070",
    "sweep-mean_photons-100-table-stdout": "6eb9e255fdc8222429bf0fedcf269cd67d3f58e9427890d3d29a734f24e10070",
    "sweep-mean_photons-2-structured-out": "9139afc43d1992eb7262f7b21405e4d443019e4036c0193577166088e59591bf",
    "sweep-mean_photons-2-structured-stdout": "9139afc43d1992eb7262f7b21405e4d443019e4036c0193577166088e59591bf",
    "sweep-mean_photons-2-table-out": "f9706a7cc280ed5e43fbf8edc53e24a06c6c14db7dbd95dc49222a0853877885",
    "sweep-mean_photons-2-table-stdout": "f9706a7cc280ed5e43fbf8edc53e24a06c6c14db7dbd95dc49222a0853877885",
    "sweep-nu-1-structured-out": "2006727a854cd22ab169feb880038483872740e08d25f13b0d58888d92444daf",
    "sweep-nu-1-structured-stdout": "2006727a854cd22ab169feb880038483872740e08d25f13b0d58888d92444daf",
    "sweep-nu-1-table-out": "f063b6c6bee78202f7effcec66e40baf3cf96e31873fd5c844618d49b4a16259",
    "sweep-nu-1-table-stdout": "f063b6c6bee78202f7effcec66e40baf3cf96e31873fd5c844618d49b4a16259",
    "sweep-nu-100-structured-out": "48c6b4807ecde2b5bb6dcd01f5d24024f4825a0745563eb4b8ccc4068af1c99d",
    "sweep-nu-100-structured-stdout": "48c6b4807ecde2b5bb6dcd01f5d24024f4825a0745563eb4b8ccc4068af1c99d",
    "sweep-nu-100-table-out": "fee64f3e5eb4d0717e0adde531385b8cd9ee063818529c627ceb006517a120d8",
    "sweep-nu-100-table-stdout": "fee64f3e5eb4d0717e0adde531385b8cd9ee063818529c627ceb006517a120d8",
    "sweep-nu-2-structured-out": "e688ce2034429838afb606f2d994b9c99460beb4b734bfde785f5f1fc8b64a95",
    "sweep-nu-2-structured-stdout": "e688ce2034429838afb606f2d994b9c99460beb4b734bfde785f5f1fc8b64a95",
    "sweep-nu-2-table-out": "dde5107de1fe134fb7ef2ff5fd698bba42f796c25ea54af0fc135f184e6903a7",
    "sweep-nu-2-table-stdout": "dde5107de1fe134fb7ef2ff5fd698bba42f796c25ea54af0fc135f184e6903a7",
    "sweep-r-1-structured-out": "f66dbb5c212ab12b619af28606577fcb077fb4fb43bcd96bf6db64905a7d8b88",
    "sweep-r-1-structured-stdout": "f66dbb5c212ab12b619af28606577fcb077fb4fb43bcd96bf6db64905a7d8b88",
    "sweep-r-1-table-out": "331449cae9c338fcea847f3c9905a1180d90f8e0a9848f2b3c5ff80f19bf15ea",
    "sweep-r-1-table-stdout": "331449cae9c338fcea847f3c9905a1180d90f8e0a9848f2b3c5ff80f19bf15ea",
    "sweep-r-100-structured-out": "ce6617ea61cb77259001f5a7a66598ddfde160777d6004eced83c2d37c908ca3",
    "sweep-r-100-structured-stdout": "ce6617ea61cb77259001f5a7a66598ddfde160777d6004eced83c2d37c908ca3",
    "sweep-r-100-table-out": "02806cda04c4e85839ace41ce74154a0fab99ea2bf17e8908b353aa3ab8d15a2",
    "sweep-r-100-table-stdout": "02806cda04c4e85839ace41ce74154a0fab99ea2bf17e8908b353aa3ab8d15a2",
    "sweep-r-2-structured-out": "d5c396b0fda296b215a470356a5bbb2349106a74ff77c020af3efc031d2be649",
    "sweep-r-2-structured-stdout": "d5c396b0fda296b215a470356a5bbb2349106a74ff77c020af3efc031d2be649",
    "sweep-r-2-table-out": "31105dad1c6cdced451de6d385c7473321514c56c97586f595cb556455d6a498",
    "sweep-r-2-table-stdout": "31105dad1c6cdced451de6d385c7473321514c56c97586f595cb556455d6a498",
}


def _argvs(record: str) -> dict[str, list[str]]:
    """Every case but its output flags, by name; ``record`` is the sample file."""
    argvs = {}
    for axis, (state, detectors, eta, start, stop) in SWEEPS.items():
        for steps in STEPS:
            argvs[f"sweep-{axis}-{steps}"] = [
                "sweep", "--state", state, "--detectors", detectors, "--eta", eta,
                "--sweep-axis", axis, "--from", start,
                "--to", start if steps == 1 else stop, "--steps", str(steps),
            ]
    argvs["analyze"] = ["analyze", "--in", record]
    argvs["analyze-bootstrap"] = ["analyze", "--in", record, *BOOTSTRAP]
    return argvs


def case_bytes(workdir: Path) -> dict[str, bytes]:
    """The bytes of every case, by name, run with its files in ``workdir``."""
    record = workdir / "record.txt"
    assert main(RECORD + ["--out", str(record)]) == 0
    cases = {}
    for name, argv in _argvs(str(record)).items():
        for fmt in ("table", "structured"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv + ["--format", fmt]) == 0, name
            cases[f"{name}-{fmt}-stdout"] = stdout.getvalue().encode()
            out = workdir / f"{name}-{fmt}.out"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0, name
            cases[f"{name}-{fmt}-out"] = out.read_bytes()
    return cases


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return case_bytes(tmp_path_factory.mktemp("cli_bytes"))


def test_every_case_is_pinned(cases):
    assert cases.keys() == DIGESTS.keys()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_case_bytes(cases, name):
    assert hashlib.sha256(cases[name]).hexdigest() == DIGESTS[name]


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in case_bytes(Path(workdir)).items():
            (target / name).write_bytes(data)
