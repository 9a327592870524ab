"""Byte-identity matrix for the CLI.

Every subcommand runs in each of --format json, csv, text and dot on small
types, plus the usage errors and one --out case. A digest of the exit code,
stdout, stderr and the --out file pins each command's complete output, so a
refactor of the command surface must reproduce it byte for byte.

To re-record after an intended output change, print ``digest(...)`` for every
key of ``DIGESTS`` and paste the values. The "nonsense" case pins argparse's
own usage message, whose wording can change between Python releases.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from weylstrat import cli, weyl
from weylstrat.cli import run
from conftest import SUPPORTED_TYPES

# README's SO(5) example kernel, in the C2 numbering, for the --kernel FILE path
KERNEL = "# SO(5): half step along the short coroot\n1/2 0\n0 1\n"

FORMATS = ("json", "csv", "text", "dot")
COMMANDS = [
    "subsystems --family B --rank 3",
    "hasse --family C --rank 3",
    "coeffs --family A --rank 2 --class A1",
    "coeffs --family B --rank 2 --class 0 --kernel so-odd",
    "dcoeffs --family C --rank 3 --class C1+C2",
    "dcoeffs --family A --rank 1 --class full",
    "dcoeffs --family A --rank 4 --class A1",
    "dcoeffs --family D --rank 4 --class A1+A1",
    "dcoeffs --family B --rank 3 --class A1 --kernel so-odd",
    "kblock --family A --rank 2 --class 0 --cutoff 6",
    "kblock --family B --rank 2 --class A1 --cutoff 5 --kernel so-odd --hbar 1.0",
    "kblock --family A --rank 1 --class 0 --cutoff 3/2",
    # rank 3 and 4 blocks, each with a "possibly incomplete" line
    "kblock --family D --rank 4 --class A1+A1 --cutoff 6",
    "kblock --family C --rank 3 --class C1+C2 --cutoff 8 --hbar 0.5",
    "kblock --family B --rank 3 --class A1 --cutoff 7 --kernel so-odd",
    "pq --family C --rank 2 --kernel so-odd",
    "pq --family C --rank 2 --kernel {kernel}",
    "gammax --family C --rank 2 --kernel so-odd --point A=1/4,0",
    "gammax --family D --rank 4 --point A=1/3,0,1/2,0",
    "verify --group SU(3)",
]
EXTRA = [
    # usage errors
    "coeffs --family A --rank 2 --class Z9",
    "coeffs --family B --rank 1 --class 0",
    "gammax --family A --rank 2 --point A=oops",
    "coeffs --family A --rank 2 --class 0 --kernel /nonexistent/kernel.txt",
    "nonsense",
    "kblock --family A --rank 1 --class 0",
    "verify --group Nope",
    # default format, and a file target
    "hasse --family B --rank 2",
    "coeffs --family A --rank 1 --class 0 --format csv --out {out}",
    # root coordinates at more types, recorded before roots held integer coordinates
    "pq --family A --rank 3 --format json",
    "pq --family B --rank 4 --kernel so-odd --format json",
    "pq --family D --rank 5 --format json",
    "gammax --family B --rank 3 --kernel so-odd --point A=1/2,0,0 --format json",
    # an empty K block, and the A3 block's csv and text, recorded before kblock rendered lazily
    "kblock --family A --rank 2 --class 0 --cutoff 0 --format json",
    "kblock --family A --rank 3 --class 0 --cutoff 10 --format csv",
    "kblock --family A --rank 3 --class 0 --cutoff 10 --format text",
    # a D4 point whose Γ_x is the unlisted twin A3', so its class is None; recorded while
    # gammax walked Γ_x's W-orbit; it moves when ROADMAP item 2 lists the twins
    "gammax --family D --rank 4 --point A=1/4,0,0,1/4",
]


def run_case(cmd, capsys):
    """(exit code, stdout, stderr, --out file) of one case.

    Runs in the current directory, which must be empty and writable: the
    kernel path appears in the JSON header, so it has to be the same relative
    name on every run.
    """
    kernel, out = Path("kernel.txt"), Path("out.txt")
    kernel.write_text(KERNEL)
    code = run([a.format(kernel=kernel, out=out) for a in shlex.split(cmd)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else b""


def digest(cmd, capsys):
    """sha256 over run_case's four parts, each length-prefixed."""
    code, out, err, written = run_case(cmd, capsys)
    h = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode(), written):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


DIGESTS = {
    "subsystems --family B --rank 3 --format json": "14d4e395170b4582554388073db2b334ff4c00681c8ff4d8d10b3afd26d32fdc",
    "subsystems --family B --rank 3 --format csv": "9d7852b5228f89757a35ccab0d73ddee082e25ea564cd9c208fbb9362dd36684",
    "subsystems --family B --rank 3 --format text": "fd170b59286a3e434021c377a63c715f4bde640898036a457a28b2d38dc689dc",
    "subsystems --family B --rank 3 --format dot": "fd170b59286a3e434021c377a63c715f4bde640898036a457a28b2d38dc689dc",
    "hasse --family C --rank 3 --format json": "7d097f72634b99c81588d6e6310723e5f2de797a636cfd723b53a248fa560791",
    "hasse --family C --rank 3 --format csv": "266fb430f4bab1de18c03da1f2b3407d6910449046efd8d74b0ec7ec531b3f62",
    "hasse --family C --rank 3 --format text": "679095d05a349c081d691d7b7fd4b5a004fa424bc689fd10aa4d14f235a8808f",
    "hasse --family C --rank 3 --format dot": "679095d05a349c081d691d7b7fd4b5a004fa424bc689fd10aa4d14f235a8808f",
    "coeffs --family A --rank 2 --class A1 --format json": "4892c4f9e4d1c85c8e778113ad2cb816b85a23897d90f84c5d03c698862b1ef5",
    "coeffs --family A --rank 2 --class A1 --format csv": "efac1df3514eb2ff4f879a662419f26e2ca0fab03afc0961c2de7fd5a1867c39",
    "coeffs --family A --rank 2 --class A1 --format text": "1e874b9b2217d9ecbdd06b9b497e2906a5d7fa688e3c62dda917307bd583f311",
    "coeffs --family A --rank 2 --class A1 --format dot": "1e874b9b2217d9ecbdd06b9b497e2906a5d7fa688e3c62dda917307bd583f311",
    "coeffs --family B --rank 2 --class 0 --kernel so-odd --format json": "7c27a6e404aa4852b635961e76e0273e307aff73b49dc1fa716ce06662f4a0ee",
    "coeffs --family B --rank 2 --class 0 --kernel so-odd --format csv": "082edebd3fa7db076ea07eee0550fd29b70656d034531daa0de46f4fdd8f3936",
    "coeffs --family B --rank 2 --class 0 --kernel so-odd --format text": "e6b10511aa90e40011d7bd0c0cd400d602f1f607838aa965e9a56d0bb97ed308",
    "coeffs --family B --rank 2 --class 0 --kernel so-odd --format dot": "e6b10511aa90e40011d7bd0c0cd400d602f1f607838aa965e9a56d0bb97ed308",
    "dcoeffs --family C --rank 3 --class C1+C2 --format json": "c184537ef8a74842b829da98bd59ecfad3e06aa85ba7b52d002c06b09729498a",
    "dcoeffs --family C --rank 3 --class C1+C2 --format csv": "ad7e003c046b9584bf76f4f02417406358359fd411d5dbaba2fb0392ff22cc6f",
    "dcoeffs --family C --rank 3 --class C1+C2 --format text": "9d71252bad8cd03a1eea6cad157f2abe8f4f77c1172a75153e1f368a449880b8",
    "dcoeffs --family C --rank 3 --class C1+C2 --format dot": "9d71252bad8cd03a1eea6cad157f2abe8f4f77c1172a75153e1f368a449880b8",
    "dcoeffs --family A --rank 1 --class full --format json": "ff25dfb159b79e99ae6715cd9337a5b14bf4ef9b986cfdc7f5b18c891a1916b6",
    "dcoeffs --family A --rank 1 --class full --format csv": "b64956175b05fede97dc16b9b6c1202ac46de7315b3ce8929f86535fd0529a1f",
    "dcoeffs --family A --rank 1 --class full --format text": "4ca029d25d2358521fc4475b76d249f2ae9c639fe7e27855699d322034ca9e7b",
    "dcoeffs --family A --rank 1 --class full --format dot": "4ca029d25d2358521fc4475b76d249f2ae9c639fe7e27855699d322034ca9e7b",
    "dcoeffs --family A --rank 4 --class A1 --format json": "3caedcb18c5b6ba715f99f5b1441e46111cdd775639819882fc0d532c7b1243c",
    "dcoeffs --family A --rank 4 --class A1 --format csv": "35062fea148b2b71c63ab366664f49e404312a7c1d738fc34a38b1ccaccc9ba8",
    "dcoeffs --family A --rank 4 --class A1 --format text": "1b2eeae04e2c77b1d7227f516361e9ad3fdebe03b3ba290f34027aabac066094",
    "dcoeffs --family A --rank 4 --class A1 --format dot": "1b2eeae04e2c77b1d7227f516361e9ad3fdebe03b3ba290f34027aabac066094",
    "dcoeffs --family D --rank 4 --class A1+A1 --format json": "837e053111f79bdffa8b8a78eb976915e2299e821db80fb90ed2707a65692b82",
    "dcoeffs --family D --rank 4 --class A1+A1 --format csv": "924eb89fb78d845bb54b8a2c4a25fbc95df64be77f9c58630edf05a8cec2fe4f",
    "dcoeffs --family D --rank 4 --class A1+A1 --format text": "1f0a4fec850b7ef6a80ec2ed6753ec45b52c91ac63b8c6c5f8543223507d1bec",
    "dcoeffs --family D --rank 4 --class A1+A1 --format dot": "1f0a4fec850b7ef6a80ec2ed6753ec45b52c91ac63b8c6c5f8543223507d1bec",
    "dcoeffs --family B --rank 3 --class A1 --kernel so-odd --format json": "6747523d91be9c4466a2ca8dacfbbafe88d1984412627b4e4fbff965df4e390d",
    "dcoeffs --family B --rank 3 --class A1 --kernel so-odd --format csv": "73525bf55525780a11a0f12ea5b61dfe0c11b32262a1641b6dd04ffac18b0d5c",
    "dcoeffs --family B --rank 3 --class A1 --kernel so-odd --format text": "a9ec563d6f1e64f2fbd150bbe9acad2f527e6870d3052dac1a51659adf719f62",
    "dcoeffs --family B --rank 3 --class A1 --kernel so-odd --format dot": "a9ec563d6f1e64f2fbd150bbe9acad2f527e6870d3052dac1a51659adf719f62",
    "kblock --family A --rank 2 --class 0 --cutoff 6 --format json": "84dc2bd27ccf6fb70b687a0ce6ce3c49e3897c826c39fb33e3eb654ab779b643",
    "kblock --family A --rank 2 --class 0 --cutoff 6 --format csv": "d0f9c082be20c81b64ecd130e018d3046eab72ecc30c19010031af058ede3c73",
    "kblock --family A --rank 2 --class 0 --cutoff 6 --format text": "a9c1ae0d021677784ac8cad69a33a8a1651d16e1432c5ceb972d22c582d9a4c9",
    "kblock --family A --rank 2 --class 0 --cutoff 6 --format dot": "a9c1ae0d021677784ac8cad69a33a8a1651d16e1432c5ceb972d22c582d9a4c9",
    "kblock --family B --rank 2 --class A1 --cutoff 5 --kernel so-odd --hbar 1.0 --format json": "2e06aef7448d528b9de327de93a9bf220f1edbe888d7ef4a78225d8206eb405d",
    "kblock --family B --rank 2 --class A1 --cutoff 5 --kernel so-odd --hbar 1.0 --format csv": "ae1aaf39bbd5a566a75ef7ac4a148eaf40d4d165e8da490825a3fc91c1638a52",
    "kblock --family B --rank 2 --class A1 --cutoff 5 --kernel so-odd --hbar 1.0 --format text": "2c7ab3cd0f3d8686fd3f8b7c95a287016ab29fa7eee4a93671de99dae824f73f",
    "kblock --family B --rank 2 --class A1 --cutoff 5 --kernel so-odd --hbar 1.0 --format dot": "2c7ab3cd0f3d8686fd3f8b7c95a287016ab29fa7eee4a93671de99dae824f73f",
    "kblock --family A --rank 1 --class 0 --cutoff 3/2 --format json": "ba64c876f7a4c32e7373e0f0a1320e85b048b9de8eae17d772eeaedd375d5461",
    "kblock --family A --rank 1 --class 0 --cutoff 3/2 --format csv": "09a26f89628c71ef862d7bbb72c80c90b0a8a71f0dc4c56bc0e5fc35d47256b1",
    "kblock --family A --rank 1 --class 0 --cutoff 3/2 --format text": "65d1e8af1debed23bda6ab40c8014220678d182fc432097c116ea4f9f1c72237",
    "kblock --family A --rank 1 --class 0 --cutoff 3/2 --format dot": "65d1e8af1debed23bda6ab40c8014220678d182fc432097c116ea4f9f1c72237",
    "kblock --family D --rank 4 --class A1+A1 --cutoff 6 --format json": "771bc42383143d0f79b4c47cab4d8b614f3e6ffbb4b3f4450ba7f62703b57fb1",
    "kblock --family D --rank 4 --class A1+A1 --cutoff 6 --format csv": "64fa7633bee0486ba895ece79fa70ace3f1b8edcb2f974c2c052e8b0068824bb",
    "kblock --family D --rank 4 --class A1+A1 --cutoff 6 --format text": "3d4df7b153f56c07c9910ec5e9f9aa693a57ebc6af414316e6e234147db7968d",
    "kblock --family D --rank 4 --class A1+A1 --cutoff 6 --format dot": "3d4df7b153f56c07c9910ec5e9f9aa693a57ebc6af414316e6e234147db7968d",
    "kblock --family C --rank 3 --class C1+C2 --cutoff 8 --hbar 0.5 --format json": "013c1d53d20c7814db2fc725ba20dcb1aed62bae2e2c0ae301201f8b242112e7",
    "kblock --family C --rank 3 --class C1+C2 --cutoff 8 --hbar 0.5 --format csv": "56e47dfdae0b5fd6552396f91fc0ee6864a545609d787a80f68cd920d9048f78",
    "kblock --family C --rank 3 --class C1+C2 --cutoff 8 --hbar 0.5 --format text": "34d27d830ffed9997c2ce2ea55a49571ae0860b822c075ddd5928922ae536270",
    "kblock --family C --rank 3 --class C1+C2 --cutoff 8 --hbar 0.5 --format dot": "34d27d830ffed9997c2ce2ea55a49571ae0860b822c075ddd5928922ae536270",
    "kblock --family B --rank 3 --class A1 --cutoff 7 --kernel so-odd --format json": "b832715ce1e0e600c84d0b4d001ec183024dec5b1b21054655fa1d7e73a11315",
    "kblock --family B --rank 3 --class A1 --cutoff 7 --kernel so-odd --format csv": "0c84b8b2a70efc52d1baacaa501743be2fae3e13bbf097f263c1f7862b8f999c",
    "kblock --family B --rank 3 --class A1 --cutoff 7 --kernel so-odd --format text": "180d2d288dc0bbcc3ca0386307bd51d32a4c92964de362490d0c9cf31f60c776",
    "kblock --family B --rank 3 --class A1 --cutoff 7 --kernel so-odd --format dot": "180d2d288dc0bbcc3ca0386307bd51d32a4c92964de362490d0c9cf31f60c776",
    "pq --family C --rank 2 --kernel so-odd --format json": "2d9a9f39344ae02a81cbae384a56e65afe2dfcdd4e73bc80d9e8e39a2ebaf177",
    "pq --family C --rank 2 --kernel so-odd --format csv": "4b37603c76d70937c468bb626092a9e398d16c9451f984d1635b37cc4066bf18",
    "pq --family C --rank 2 --kernel so-odd --format text": "3fac11ae0ced3ef61ecda09f8963bf086c8b535e73f3a8c3ab28a380bb675b9a",
    "pq --family C --rank 2 --kernel so-odd --format dot": "3fac11ae0ced3ef61ecda09f8963bf086c8b535e73f3a8c3ab28a380bb675b9a",
    "pq --family C --rank 2 --kernel {kernel} --format json": "fb42f80ae9395699438a0b0f7e16fb9bafbb33f2e970bad0c2d6940a8200e1a8",
    "pq --family C --rank 2 --kernel {kernel} --format csv": "4b37603c76d70937c468bb626092a9e398d16c9451f984d1635b37cc4066bf18",
    "pq --family C --rank 2 --kernel {kernel} --format text": "3fac11ae0ced3ef61ecda09f8963bf086c8b535e73f3a8c3ab28a380bb675b9a",
    "pq --family C --rank 2 --kernel {kernel} --format dot": "3fac11ae0ced3ef61ecda09f8963bf086c8b535e73f3a8c3ab28a380bb675b9a",
    "gammax --family C --rank 2 --kernel so-odd --point A=1/4,0 --format json": "3f1a6a6ef5e3530bd9b06242b1c8a855f93b8969611f2b576a3115b3e233fe8e",
    "gammax --family C --rank 2 --kernel so-odd --point A=1/4,0 --format csv": "156bb3fa5fcafc08d4d2245699d86f53a7e258c8fcf5201e1c0d0bae9f445c75",
    "gammax --family C --rank 2 --kernel so-odd --point A=1/4,0 --format text": "156bb3fa5fcafc08d4d2245699d86f53a7e258c8fcf5201e1c0d0bae9f445c75",
    "gammax --family C --rank 2 --kernel so-odd --point A=1/4,0 --format dot": "156bb3fa5fcafc08d4d2245699d86f53a7e258c8fcf5201e1c0d0bae9f445c75",
    "gammax --family D --rank 4 --point A=1/3,0,1/2,0 --format json": "e2432a3b4996a9ca4e267facbeb3f21529c74d956baeb4d5383b3cb4c4e23ef6",
    "gammax --family D --rank 4 --point A=1/3,0,1/2,0 --format csv": "d3e6392cbab8fd8f008e0f255f5962cf0691eb0a997c2542cffc0d536cb7ae0a",
    "gammax --family D --rank 4 --point A=1/3,0,1/2,0 --format text": "d3e6392cbab8fd8f008e0f255f5962cf0691eb0a997c2542cffc0d536cb7ae0a",
    "gammax --family D --rank 4 --point A=1/3,0,1/2,0 --format dot": "d3e6392cbab8fd8f008e0f255f5962cf0691eb0a997c2542cffc0d536cb7ae0a",
    "verify --group SU(3) --format json": "73b7b92d325572d2c7f4aa58b4a993d6c2da30c50dbdefd767645372ce4f4577",
    "verify --group SU(3) --format csv": "73b7b92d325572d2c7f4aa58b4a993d6c2da30c50dbdefd767645372ce4f4577",
    "verify --group SU(3) --format text": "73b7b92d325572d2c7f4aa58b4a993d6c2da30c50dbdefd767645372ce4f4577",
    "verify --group SU(3) --format dot": "73b7b92d325572d2c7f4aa58b4a993d6c2da30c50dbdefd767645372ce4f4577",
    "coeffs --family A --rank 2 --class Z9": "8615b506dda7f12978f6c563ca454675cd909f62c15fcebce52320d3cf3fbb2a",
    "coeffs --family B --rank 1 --class 0": "34b9d79f35cd2fa72a18c9e97ed7c850e092694dac2fd4b0805fff5be7a43631",
    "gammax --family A --rank 2 --point A=oops": "a64218187f1176624ca284752bcc7176eb739f649fd622d5bc8f7c93a1dddc79",
    "coeffs --family A --rank 2 --class 0 --kernel /nonexistent/kernel.txt": "0cf692ec0e7d6dc30bd68a74f24023f17c35c21d2decc157f317a690495ef3b9",
    "nonsense": "ff9188731c2c0a858af56601f2603e2ce6765b35c559b77f5308b9f8c2411e8d",
    "kblock --family A --rank 1 --class 0": "1b1d7b400e3eb4a25dc5946b3d3465c3656df4ddd2ab30d51072affe5f23bc9d",
    "verify --group Nope": "fb1ff8203a982a055ec14f08e176d44e36fde2f1dd0d66c8dedeb06cb70fc2b9",
    "hasse --family B --rank 2": "6ce80d9c7771ace44d5357af42d5b320997cbe8dae4e9da33794026dacecac5c",
    "coeffs --family A --rank 1 --class 0 --format csv --out {out}": "e7f222d1df55b789ccb9f903593fc8297d058086b8495757f1965f6644c7af00",
    "pq --family A --rank 3 --format json": "f5b9802b749c2a50792520c8feff8ab12e997dca6127ce7bbb5dda3d4eb2d660",
    "pq --family B --rank 4 --kernel so-odd --format json": "2fe330fe14a9eeac3084156f1ec61e3197386b5e6cf1e9ec6734614e81493f3f",
    "pq --family D --rank 5 --format json": "ea6055196f831ad1715203e95d4eb69d253029179cf8e8e0b43d0f7fb16e22a7",
    "gammax --family B --rank 3 --kernel so-odd --point A=1/2,0,0 --format json": "e720537647cd202a70fe02cfb11393f3fa93b91ebd2f930d33de52b4a59f66ad",
    "kblock --family A --rank 2 --class 0 --cutoff 0 --format json": "a489a71a6a3462c7fa3e4611697571957ed0e9c4c8498c525c411cc39784e16a",
    "kblock --family A --rank 3 --class 0 --cutoff 10 --format csv": "6145b51c880822789363e7657398e30a42f9d6826f2756b8b575e60525e9b75d",
    "kblock --family A --rank 3 --class 0 --cutoff 10 --format text": "1527dd29a3fc4ed1b55fc69d4641a014ef06b83cce5b00c6e8c4fbf341b8cdee",
    "gammax --family D --rank 4 --point A=1/4,0,0,1/4": "e402843bb43a897795de75cbef6f566b96218bb4e7860e45be1222c9e0bfd206",
}


@pytest.mark.parametrize("cmd", list(DIGESTS))
def test_output_matches_recorded_digest(cmd, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
    assert digest(cmd, capsys) == DIGESTS[cmd]


@pytest.mark.parametrize("cmd", [c for c in DIGESTS if c.startswith("gammax")])
def test_gammax_builds_no_weyl_group(cmd, tmp_path, capsys, monkeypatch):
    # the class is read off Γ_x's coordinate blocks: no group, class list or orbit walk
    def refuse(*args):
        raise AssertionError("gammax reached the Weyl group or the class list")

    monkeypatch.setattr(weyl.WeylGroup, "__init__", refuse)
    monkeypatch.setattr(weyl.WeylGroup, "coset_representatives", refuse)
    monkeypatch.setattr(cli, "enumerate_classes", refuse)
    monkeypatch.chdir(tmp_path)
    assert digest(cmd, capsys) == DIGESTS[cmd]


# verify writes its text report in every format
JSON_CASES = [c for c in DIGESTS if c.endswith("--format json") and not c.startswith("verify")]


@pytest.mark.parametrize("cmd", JSON_CASES)
def test_json_output_is_json_dumps_indent_one(cmd, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _, _ = run_case(cmd, capsys)
    assert code == 0
    assert json.dumps(json.loads(out), indent=1) + "\n" == out


def test_matrix_covers_every_command_and_format():
    want = [f"{c} --format {f}" for c in COMMANDS for f in FORMATS] + EXTRA
    assert list(DIGESTS) == want


# recorded before class representatives were built from coordinate blocks
SUBSYSTEMS_JSON_DIGEST = "695231cea7818d94b564cf7603c7faa8d0c986253c08964049e6ed75c8fce688"


def test_subsystems_json_at_every_supported_type(capsys):
    # pins the root indices of every class representative of every type
    h = hashlib.sha256()
    for family, rank in SUPPORTED_TYPES:
        assert run(["subsystems", "--family", family, "--rank", str(rank), "--format", "json"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == SUBSYSTEMS_JSON_DIGEST


# recorded before classes were lists of (kind, m) factors; the D4 and D6 digests
# move when the second W-class of each even partition at D_n is listed (ROADMAP
# item 2), since each such class adds a node to the poset
HASSE_JSON_DIGESTS = {
    "A1": "73fec8b441e006067f8b9ab929a653a9dd33c491133c3e05294623f7cb536c25",
    "A2": "707f7363f472e9594691e37a6a0d723c5e950b1a2c33477692a3985b64a2a039",
    "A3": "f318d8ce2020f4eadf2d567539b945f8392585eaf5f7d41b1175937eab34a864",
    "A4": "3377b097c50b3dfa1cda4342212051f5b37cf3d10a254cd69a7cdc4a04f69929",
    "A5": "5dd6c76b62d2073303e71c508b4d5fb867c78660e02295efdd7c68f2c79efca8",
    "A6": "f330443b8fde758986648a0d78532ec25cda96e51ddaef2272c159d73e7758dd",
    "B2": "d26ced0f0d38b613f7706a977eaf6340a1bfb039fa78d8c3f60e292448b4dc1b",
    "B3": "cb78c538751e4bd4b2f94884faa4f84e7be2203b639aa8a4783c48373e4e006f",
    "B4": "986e8178210cde2a5b280a005e0adb356a90e17ff13c1ab773ce0dee9a607010",
    "B5": "629579b6596f9f70a87a2bde93a156a0b7b56279fa82032d1f08af7a2202d294",
    "B6": "fb755756146847ad5305b7ddd6aab23c16169fce9c183a429f90ff60760d5ee6",
    "C2": "5c2afdb19e374c1860a5252cd4fa887e13c57c1a15c7f0e0eeb4f09b23908e13",
    "C3": "e5c1d4d4247b988de09089c240b2ccf3338d10d173502824859ef7c572ddca09",
    "C4": "0937efad7ff059a85ec09ed210a09dceff4d9f29c966f5c1e5e2d68f29744471",
    "C5": "a54adab629f2e995a0c4119ecf95ad9cc25f1753de347ed2c46ee9f5b27a55d6",
    "C6": "fb95ff1bfceb5cf8e76965dee80f8bf837b15fdb4d4bc4f9f2ba17a98c0f6924",
    "D4": "d33fb8138bf954961102a0a3f18247c674b96ae1c5e74369969e41a905fd6e80",
    "D5": "7885608c342ea9f52443a09fb6cab08436eaf29d5d4a31a7f0d0495ef0b34776",
    "D6": "2d6d554f2a4e35f0ceda5950bdb2d32098c9ad428fda72ad1611b5fbeb383da4",
}


@pytest.mark.parametrize("family,rank", [(f, r) for f, r in SUPPORTED_TYPES if r <= 6])
def test_hasse_json_up_to_rank_six(family, rank, capsys):
    assert run(["hasse", "--family", family, "--rank", str(rank), "--format", "json"]) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == HASSE_JSON_DIGESTS[f"{family}{rank}"]
