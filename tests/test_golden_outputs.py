"""Byte-identity guard: `verify --json` and `reduce --json` output for
fixed arguments and seeds, plus the `constants --all --audit` text and
`demo-codywaite --json`, pinned by sha256.

The digests were taken before the kernel's hot path was reworked (trusted
construction, single-shift rounded ops, lazy z-extraction diagnostics),
and the thm3, correct2 and correct1 ones before the sweep conclusions
moved from Fraction to scaled-integer arithmetic; a performance change must leave every one of them as it is.  A change
that alters an output on purpose (a new stats field, a new JSON key)
re-pins the affected digests and says why.  The seven `verify` digests
other than exhaustive thm6 were re-pinned when the config started to
record the window a check ran (the sweeps' own 12, or null for a check
that reads none) instead of the unread default 8; cases, failures and
stats stayed byte-identical.  The sterbenz2 digest was re-pinned when
one subtraction sweep took over both Sterbenz checks: its stats gained
`closed_form_cases`, which sterbenz already reported.  The correct1 p=7
digest (114 888 cases through the free-z interval walk) and the ln2 quad
q=3 audit text were pinned before that walk, the kernel's rational
rounding and C1 generation (now by the kernel, not the oracle) changed.
The `constants --json` digests of a custom p = 12 format and of a JSON
enclosure file (a fixed 400-bit enclosure of sqrt 2, which cannot be
refined) were pinned before constant generation moved from `Fraction`
enclosures onto the constant's scaled integer enclosure.
Runs in-process, in a few seconds.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from math import isqrt

import pytest

from argred.cli import main

VERIFY = [
    (
        "thm6 pi double N=0,10",
        "verify --theorem thm6 --const pi --format double --N 0,10 --seed 20261018 --trials 3000 --json",
        "f991516c44c0d746b5b24b33445a25abb39e84f2e6068f513921713434645199",
    ),
    (
        "thm6 ln2 double N=5 away",
        "verify --theorem thm6 --const ln2 --format double --N 5 --seed 99 --trials 2000 --ties away --json",
        "e8768ae70f7e9d137b1f2ebcd6a07e84aa5424854fe1a65dca91f4296c7f2bae",
    ),
    (
        "eft",
        "verify --theorem eft --seed 7 --trials 3000 --json",
        "995c20451e36b5ff802ab888f854afefca560a9bc6e2b8d002056490bff952ea",
    ),
    (
        "correct3 p=8 away",
        "verify --theorem correct3 --p 8 --r-step 32 --ties away --json",
        "0ecfdd5be9a82a72967d8eeac3e26e697cec215ea8a990f3795f3fadbaacb6be",
    ),
    (
        "thm6 exhaustive p=8",
        "verify --theorem thm6 --exhaustive --p 8 --r-step 64 --N 0,2 --window 4 --json",
        "2bd93e5312827cd2ffdcc4ccccd48e3a0b289a54d9dae43dd5ef25d29c0c4b7e",
    ),
    (
        "thm3 p=8",
        "verify --theorem thm3 --p 8 --r-step 16 --json",
        "ac12809d4e223a3cbcf93fe8647606eb622af356b465260bce7c317e56a03de8",
    ),
    (
        "correct2 p=8 q=2,3",
        "verify --theorem correct2 --p 8 --r-step 16 --N 0,1 --q 2,3 --json",
        "342c5e2b99405152b4518ba9c81bc633b75196c875fa81f4f0d4cd83e3de3bfa",
    ),
    (
        "correct1 p=8 N=0,1",
        "verify --theorem correct1 --p 8 --r-step 16 --N 0,1 --json",
        "a28e938c72c221025006db2d35b6e763f6b05bcb77305b7f593dd0cb5f10789b",
    ),
    (
        "sterbenz beta=3 p=3",
        "verify --theorem sterbenz --beta 3 --p 3 --json",
        "dca632fb798dee7ff96892b4cf5e6605c1fea5098618dce2dee1d686da803870",
    ),
    (
        "sterbenz2 p1=6 p2=3",
        "verify --theorem sterbenz2 --beta 2 --p1 6 --p2 3 --json",
        "0ab3752ac7154d8f5ee4d64cd46fefb8ff560ea38cfedb6915a7fc3c7cba6bb3",
    ),
    (
        "correct1 p=7 N=0,2 q=1,2,3 away",
        "verify --theorem correct1 --p 7 --r-step 4 --N 0,2 --q 1,2,3 --ties away --json",
        "648c7e54d3c4cbfe94308749586b2ce10af48506ede07a8faa36e73aff0e60d3",
    ),
]

REDUCE_X = ("10", "-3.25", "1e5", "123456789 * 2^-20")
REDUCE_DIGESTS = {
    ("pi", "double"): (
        "77ce2a82196b590953bddde7c8d76d74aba3901ea99cebf11d547dbf212d9619",
        "d26ca081d3f53242ec793bbd0e38d96c88d98063e31533d2d44412847e20398a",
        "1df84839f43c63697c78a31802c65cc775cf6f200be2e16b668324b1f4d5636a",
        "12acc779c07ff42f07c267aff3ba4b17ea324c36e8a98ea5e22980b07949c587",
    ),
    ("ln2", "double"): (
        "567af07c0e67abdc08f676835c62f13ca5c903f57be56aea65676dd5bcf1b8d6",
        "8d8682b0d0eb5e1388109f63ef80668d0ffeac5d94daecabb34bd1599b640e0d",
        "849b9580d14570dd2bbb36dcae42294dff87ae714c718ac8d0cc1e6474bf1ae7",
        "d0590e1b3dc535150ebd9da5b252ba315ac17a5bc75a91fed0565ba76246fec1",
    ),
    ("pi", "quad"): (
        "af600530fb30fa8b3030be2e7f6d3bb3ce5197bc8447af0344567a2dc121ed5d",
        "0ff8f531c579fec2a56ddbbbc0c2c82e564d59048b9a9ad2f3d64a195040d1df",
        "a728662cfa77c23ffe3a93420a6470e3c3f0b25711dd35d21bb6ff37503cf224",
        "34ec572603158023db2d989e2c2ab08c6c14f70f745a8060911eeade84d8227b",
    ),
    ("ln2", "quad"): (
        "9a48245d9e76a2b3ba662d9fa8478371f698f81f1aa80339a240e73e1f208f6b",
        "3838f1be77539c5b6107c0e8803f3744f6b4d2b58a11e1e1da804904771d4285",
        "a81c60ddb00985fce017b070c6dd94c15efe6e41bf9a695ae841e1bc2b128a39",
        "23ba32e332557e34301bbb4f98838ce7e15f835ae1d4595eaa0eba0a96d227b6",
    ),
}
REDUCE = [
    (f"{c} {f} x={x}", ["reduce", "--x", x, "--const", c, "--format", f, "--json"], digest)
    for (c, f), digests in REDUCE_DIGESTS.items()
    for x, digest in zip(REDUCE_X, digests)
] + [
    (
        "ln2 single x=700.5 away",
        ["reduce", "--x", "700.5", "--const", "ln2", "--format", "single", "--ties", "away", "--json"],
        "0da4bceb1a44cecc85ce506b062a437c784b8cfc7f260c9862a5138f109841a7",
    ),
    (
        "pi double-extended x=-1e10 N=5",
        ["reduce", "--x=-1e10", "--const", "pi", "--format", "double-extended", "--N", "5", "--json"],
        "ff6e0c9f0a1feb49ce04b08ef3027d2cb9db2f79ccf35a25cbd8be1cc242cd92",
    ),
]
# Zero results inside the pipeline: x = 1e-4 has |x*R| < 2^(-N-1), so z = 0
# (at N = 0 and 10), and x = 4*C1 gives z = 4, u = 0 and v2 = 0.  Pinned
# while the kernel still returned every exact zero at the quantum e_min_q.
ZERO_DIGESTS = {
    ("pi", "double-extended"): (
        "14488038916154245684 * 2^-60",
        "a23542ce0416d99b594e20fe3a1e62605f4a332771b11be9686c0d3327eb0f85",
        "e1273c5d7672cacceb2ab4518124154467a912d43daf8dc5d0b8aa8059655c27",
        "fd4a2c21ee58509e497633afccffcc0f87b3cd8faeb9ae47fa6bb79e87a7331b",
    ),
    ("pi", "quad"): (
        "8156040833015188200833743081374136 * 2^-109",
        "69e25235dc082c2f6b505c1760e741e72644a1ff1b59b33aa180474f6a464bf8",
        "5dfffa5797be3cac91cb7f058790d0d36a963bdd3cd57faac4a35c7884df8724",
        "ac0be9ba8ba904775068c7423672b3b3076d8de4e13e853df5a25b603118e9af",
    ),
    ("ln2", "double-extended"): (
        "12786308645202655660 * 2^-62",
        "0ae0962690de3b1a9210d71e99eaeacf74d3b149d2c359acb22a9343dc766542",
        "c7770603d1145e1ff279f74ba43caf3408b29263bfc73898b16465ca910b6db3",
        "f576ca645d4226bf16e78ef15ff69f374fbf69e0a05ee3fc70d9d06b19a138d8",
    ),
    ("ln2", "quad"): (
        "7198051856247353947080814903691240 * 2^-111",
        "706bd8c2b636354a2a555268c02b0b69c558cb1fce13a525fbcbc2c030064ae8",
        "a34887e61d56432e8c8d9ddfe5c75fd31b052a206caa23a8d789866c1c7295cc",
        "9ac310f203d7db8635380abe2c590a414a97b11cec79478008004cb7ba4b3962",
    ),
}
REDUCE += [
    (f"{c} {f} {name}", ["reduce", *argv, "--const", c, "--format", f, "--json"], digest)
    for (c, f), (x4c1, *digests) in ZERO_DIGESTS.items()
    for (name, argv), digest in zip(
        (("x=1e-4 N=0", ["--x", "1e-4"]), ("x=1e-4 N=10", ["--x", "1e-4", "--N", "10"]), ("x=4*C1", ["--x", x4c1])),
        digests,
    )
]
OTHER = [
    (
        "constants all audit",
        "constants --all --audit",
        "5585e0980976aa973ae82faf0348ae8ffa2db8035691553df42416872d5c3b37",
    ),
    (
        "demo-codywaite",
        "demo-codywaite --json",
        "4c175d4c26e026dcde214b9668761efae51bb2b5e065cc60d7333eda1a64eaa4",
    ),
    (
        "constants ln2 quad q=3 N=5 audit",
        "constants --const ln2 --format quad --q 3 --N 5 --audit",
        "fb98657041abc83dae2ec9c2752635ac447c669faa0afc42fc5a4add4117a37d",
    ),
]
CUSTOM_DIGESTS = {
    ("pi", 2, 0): "ba4d1d0da493db5500fca7a7cc2e2eb87b0b23e3637524486d54514a22cdb94d",
    ("pi", 2, 3): "19559bac6db42b3c315457b0638799c7ee28fa2bb6b79952439a161bfe0bc831",
    ("pi", 3, 0): "2430df4f991c5e83be3caba62277da7b4e0f06c271091225eeec7213c280441f",
    ("pi", 3, 3): "0b8258a671ff2122c76fb6dba4ee4533d0fe030cd456fa4e67cad9a334ad8a12",
    ("ln2", 2, 0): "4d5b7710d49f2f9ad45567d7046c3ab14756bafb1e641ec3d35f30e89879abe4",
    ("ln2", 2, 3): "b5bc819bbd30401e496b2937fc5e4dd632b9436e8d603f2e552698737516dbc8",
    ("ln2", 3, 0): "e994ff02046e8589e51d88ceb054470dae6c316b58bab6e83a65153220c3e87b",
    ("ln2", 3, 3): "3292872c68006d1b597ce46bbf5ebc423eceb232addc236bf095b7ed56e4fb70",
}
CUSTOM = [
    (
        f"constants {c} p12 q={q} N={n}",
        f"constants --const {c} --p 12 --e-min-q -40 --e-max 40 --q {q} --N {n} --json",
        digest,
    )
    for (c, q, n), digest in CUSTOM_DIGESTS.items()
]
CASES = [(name, argv.split(), digest) for name, argv, digest in VERIFY + OTHER + CUSTOM] + REDUCE
# each exhaustive sweep again on two worker processes, one task per (q, R):
# the same bytes for any --jobs
CASES += [
    (f"{name} jobs=2", [*argv, "--jobs", "2"], digest)
    for name, argv, digest in CASES
    if argv[0] == "verify" and (argv[2] in ("thm3", "correct1", "correct2", "correct3") or "--exhaustive" in argv)
]


def _digest(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_json_output_is_byte_identical(argv, digest):
    assert _digest(argv) == digest


FILE_DIGESTS = [
    ("--format double", "85fa47416614a3081bb6fe2b6064f2fb50a443db00042e9c8c2df140aefaa455"),
    ("--format quad --q 3 --N 4", "d122dc6b607a5f63d18dbef18b41e656315b1f0e4e2e60683d873bbd91734e19"),
    ("--p 12 --e-min-q -40 --e-max 40 --N 3", "76f0ee0639f3d990d325395efa3b5d69d02c2700a12e515359da211b35b2abd5"),
]


@pytest.mark.parametrize("args, digest", FILE_DIGESTS, ids=[a for a, _ in FILE_DIGESTS])
def test_json_file_constant_is_byte_identical(tmp_path, args, digest):
    lo = isqrt(2 << 800)  # sqrt 2 * 2^400, rounded down
    f = tmp_path / "sqrt2.json"
    f.write_text(json.dumps({"name": "sqrt2", "lo": f"{lo} * 2^-400", "hi": f"{lo + 1} * 2^-400", "bits": 400}))
    assert _digest(["constants", "--const", str(f), *args.split(), "--json"]) == digest
