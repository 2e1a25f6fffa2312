"""Golden outputs: every artifact, stdout and exit code of reference commands.

Each command runs through `cli.main` into a fresh directory, with "{out}"
in it replaced by that directory and "{tests}" by this file's, which holds
the config files the commands name.  The test compares the sha256 of every
file a command writes, of its stdout (with the output directory replaced by
"<out>") and its exit code against digests recorded from a known-good
build.  A change that alters any output on purpose re-records them: run
this file as a script to print the table.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from duropoly.cli import main

TESTS_DIR = Path(__file__).parent

COMMANDS = {
    "solve-08": "solve --v-low 1 --v-high 2 --delta 0.8 --mu0 0.6",
    "solve-099": "solve --v-low 1 --v-high 2 --delta 0.99 --mu0 0.5",
    "solve-ratio-1e-3": "solve --v-low 1e-3 --v-high 1 --delta 0.999 --mu0 0.5",
    "solve-vhigh-1e300": "solve --v-low 1 --v-high 1e300 --delta 0.99 --mu0 0.4",
    # the revenue, formed in units of v_high, stays finite near the float64
    # maximum; R(0, 0.6) = -1.5 v_high is beyond it and reads -inf
    "solve-vhigh-1.7e308": "solve --v-low 1 --v-high 1.7e308 --delta 0.8 --mu0 0.6",
    "solve-bad-params": "solve --v-low 2 --v-high 1 --delta 0.8 --mu0 0.3",
    "verify-08": "verify --v-low 1 --v-high 2 --delta 0.8 --mu0 0.6",
    "verify-099": "verify --v-low 1 --v-high 2 --delta 0.99 --mu0 0.5",
    # deviation_gap 1e-300: the rounding-level gaps at 19 of the 101 priors fail
    "verify-failing": "verify --v-low 1 --v-high 2 --delta 0.8 --mu0 0.6 "
                      "--config {tests}/golden_tight_gap.json",
    "simulate-08-csv": "simulate --v-low 1 --v-high 2 --delta 0.8 --mu0 0.6 --paths 2000 "
                       "--paths-csv {out}/paths.csv",
    "simulate-099-low": "simulate --v-low 1 --v-high 2 --delta 0.99 --mu0 0.999 --paths 500 "
                        "--type-draw fixed_low",
    "sweep-08": "sweep --v-low 1 --v-high 2 --delta 0.8 --mu0 0.5 --grid 101",
    # v_low = 0: the low type is never served
    "solve-vlow0": "solve --v-low 0 --v-high 1 --delta 0.9 --mu0 0.3",
    "solve-vlow0-prior0": "solve --v-low 0 --v-high 1 --delta 0.9 --mu0 0",
    "solve-vlow0-vhigh-1e300": "solve --v-low 0 --v-high 1e300 --delta 0.9 --mu0 2e-310",
    "verify-vlow0": "verify --v-low 0 --v-high 1 --delta 0.9 --mu0 0.3",
    "sweep-vlow0": "sweep --v-low 0 --v-high 1 --delta 0.9 --mu0 0.5 --grid 101",
    "simulate-vlow0-prior-csv": "simulate --v-low 0 --v-high 1 --delta 0.9 --mu0 0.3 "
                                "--paths 2000 --paths-csv {out}/paths.csv",
    "simulate-vlow0-low": "simulate --v-low 0 --v-high 1 --delta 0.9 --mu0 0.3 --paths 500 "
                          "--type-draw fixed_low",
    "simulate-vlow0-high": "simulate --v-low 0 --v-high 1 --delta 0.9 --mu0 0.3 --paths 500 "
                           "--type-draw fixed_high",
    "simulate-vlow0-5e-324": "simulate --v-low 0 --v-high 1 --delta 0.9 --mu0 5e-324 "
                             "--paths 500 --type-draw fixed_high",
    "simulate-vlow0-2e-310": "simulate --v-low 0 --v-high 1e300 --delta 0.9 --mu0 2e-310 "
                             "--paths 500 --paths-csv {out}/paths.csv",
}

# recorded before the v_low = 0 market ran through the ordinary cutoff table;
# the solve and sweep digests of markets with v_low > 0 since the cutoff
# chain runs in odds, and their verify digests since the deviation check
# compares option lines; the solve digests and verify-099's since each
# cutoff is the first float prior of its class and the chain ends at the
# odds of the largest float below 1
GOLDEN = {
    "solve-08": {
        "exit": 0,
        "stdout": "3eb257d164d09e3096708488d45cc2f45705e091658c93fbd623c9887c00348b",
        "cutoffs.csv": "f174dfa1fe8fb291563e892daf74230282183259da2efbc7bf1986cb2bb50a63",
        "cutoffs.json": "ebcfb069e3745551428d68c70bfee28dbfc4c20a7020e5b1ef3fc0b26028be2f",
        "mechanism.json": "c1991e664a2f6037771883225d4744c38cb7554596d44ebd1314eff276ece0af",
        "value_table.csv": "b17b1aa045234f78b6471751e9982702858a2c5c7d4571e74c3e1dcb95db1f77",
    },
    "solve-099": {
        "exit": 0,
        "stdout": "75993b7d82822450d445a99b1986f95c084c7a3f8f53ab6badf4047dcb2b20e1",
        "cutoffs.csv": "f392762425d628f609be81e54935f2532cdd91a70095b8730b6583becde3e412",
        "cutoffs.json": "03851415083e01a62dfd8c41d4219e1d9135931559c33177e3a37d7b4967ec96",
        "mechanism.json": "35726ae4cd2d8534a4cfb95fa6f850e189444965576308f4e3a007b0cd1e57a9",
        "value_table.csv": "8d438fb5948b057b9f677809451b4150bb8dc765ac4f40faed2a60dcff9d6aac",
    },
    "solve-ratio-1e-3": {
        "exit": 0,
        "stdout": "fa9698d6705694fcc3cd7f306e04e2da67e4e86f895c0602073fc6da26a07e67",
        "cutoffs.csv": "c28cc9ddf2fb0fb1435d700e8b96b8db2efa6079643a85038605c9e4a144efe0",
        "cutoffs.json": "39cc1e2949ad5d730ae98e26c001ca0187b13fc80b4b895ee5dcb85a624a2d2d",
        "mechanism.json": "5372f0de67529db219cfd5b1bef7d2164f669b917978824776f730980e1f041a",
        "value_table.csv": "adc3cef059a1d69fe35cbd824f29e4bc9741222b09a4e0ade11c038926530b1d",
    },
    "solve-vhigh-1e300": {
        "exit": 0,
        "stdout": "8cd7a4a0223550afea1252c4a8e03f7996d737fbdb0f6fbc333f65296547a810",
        "cutoffs.csv": "0cf9d99883b42d523191f034dda620d0311980a31859753464a233bc25336606",
        "cutoffs.json": "58dadc6ebe6ee2b67c4afd99cdba44ea35a4e801ac2ece4f91de80d3502ca4f1",
        "mechanism.json": "294338df0d4d2892400bc530a72b42e09311551f9b576305b40ae9acb39d91f0",
        "value_table.csv": "9ccb38ab317d3c55820d0d800101eedbcf2c94a184022d9f4eff1c38aa7acca9",
    },
    "solve-vhigh-1.7e308": {
        "exit": 0,
        "stdout": "34eb61e9cb5909a4648818acfd1e91c7df593560dcfa6484021b3bb24799ff15",
        "cutoffs.csv": "12908aa8c451afca7a9c6d2b07edae0063b6bb41cf1456a24bd55d4ae3fd350e",
        "cutoffs.json": "5b69a7c81a6edd1ea78dae4884ae9ef2dea7e9c497c0cf4e363641a1606b519a",
        "mechanism.json": "f0c5b5db6261f817365c971f618431a22430efd5335cf0f9697cb8b293bdb29b",
        "value_table.csv": "075ba8d3002edbcef0c037436060fede24c4bdc6dade08b1cb4eb721d9dae837",
    },
    "solve-bad-params": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "verify-08": {
        "exit": 0,
        "stdout": "914887d843a192318189eadaa8d86218cdd473aa8d17d6db97e490c78dec93ea",
        "verify_report.json": "408e99290da97c3d3d2de1136d8111b01c81907bdab5269d44c16ed126ab95c2",
    },
    "verify-099": {
        "exit": 0,
        "stdout": "a92c6391be9785cc1787c3d16e6687fc6de3e34796bbe10e260e79fce9000b03",
        "verify_report.json": "7bf4120f61003391431079ec403a9135c5a8e7afd60eb5b73003b0af4d7637fa",
    },
    "verify-failing": {
        "exit": 1,
        "stdout": "1fb20d2f488dc5118a895d620e8a5a59335f4b13f8caf689c62407edccf7040a",
        "verify_report.json": "12695f3fb015dae98c74eb16f6e344b92c206ccdafe1e41a20c38ca5759231b9",
    },
    "simulate-08-csv": {
        "exit": 0,
        "stdout": "dbf5c29b20fb09a5c2a63260cd018a71f116b5a614b45703571b2aac8943a7b0",
        "paths.csv": "5706d6af9ca149ba7c628cb018e95ed5d90b0377f19ecbe323948371e18b5f69",
        "simulation.json": "1b22ce776926249415ced6f2e3aa33fd2633514eba036d6a21067b922c4bba1b",
    },
    "simulate-099-low": {
        "exit": 0,
        "stdout": "ad2eb28f1146329b1fccb1830de92efcc3e18c1b82df858ae2ace227da458ea8",
        "simulation.json": "2cc3a91e9899ebe160afaaf84ae3344e5e823684fcaddb63fa823dce748bc496",
    },
    "sweep-08": {
        "exit": 0,
        "stdout": "8cb4072c4a4afd4c49aecceffa489394bd73d828b069274b11f8d6a7875f1eb5",
        "sweep.csv": "1b25266fd2f352d3ebbdbd0c3f74af3ff47fe3d27efaa57caf47b4412fcc6868",
    },
    "solve-vlow0": {
        "exit": 0,
        "stdout": "14a19c5393eddd763bc8617839edcf99f72eed3f475fb59796efbb39f6004ce1",
        "cutoffs.csv": "b312e684c57ce706381070c03af9334b16a898bbfb9514fcf1267158b08d89c9",
        "cutoffs.json": "2a887cb8836dd4c555ffbc0db6d6ab11b6863e9a6cda81de43de34e72a399f99",
        "mechanism.json": "aa4679e02aaafd9f10fb30ab081a7655f5ccdbcd9c388b851d9144ad98e3b74a",
        "value_table.csv": "e0c08e2afe08f06e398622c2d23466a427ce1e913bedda1a3b419c8ec9e83803",
    },
    "solve-vlow0-prior0": {
        "exit": 0,
        "stdout": "4d41c5f83e951321d34c86d97b72fe189a07ebd2a7f98c81aa19494b2f196ce6",
        "cutoffs.csv": "b312e684c57ce706381070c03af9334b16a898bbfb9514fcf1267158b08d89c9",
        "cutoffs.json": "2a887cb8836dd4c555ffbc0db6d6ab11b6863e9a6cda81de43de34e72a399f99",
        "mechanism.json": "ec3fcba0bfd3555a51eeec9e77cb5b93be1a2abc970ef16ad34914b2ee56a1c0",
        "value_table.csv": "4f8969a38105ec5f1859e48e7c6f4a349ed85336050fed3507205de3c7ee8efa",
    },
    "solve-vlow0-vhigh-1e300": {
        "exit": 0,
        "stdout": "35d52b81c6304de5a6000d2365035bf9e0f7d662f530191b3da5378bad596ab3",
        "cutoffs.csv": "b312e684c57ce706381070c03af9334b16a898bbfb9514fcf1267158b08d89c9",
        "cutoffs.json": "a9842b8e49ccf532326dfcc0d2195e0def3681d45de810ce5a49ab63d18d1c61",
        "mechanism.json": "07bf6a4092e14eae8bf04626c40c6133c3af508a746c403930dd134e15ed2866",
        "value_table.csv": "0bc229db44a3e2095896ac809c1eeaefe5fb210e3ac5d2efbddc670ac0f8ec1d",
    },
    "verify-vlow0": {
        "exit": 0,
        "stdout": "4da56fa265fe8aaffed79c2aa985f3aa7559606b03240429a1104b9b121dddad",
        "verify_report.json": "1298d0e7c7842408b3450e7d834fd9982769279532e6e36dad959d7780f307a2",
    },
    "sweep-vlow0": {
        "exit": 0,
        "stdout": "8cb4072c4a4afd4c49aecceffa489394bd73d828b069274b11f8d6a7875f1eb5",
        "sweep.csv": "74691276c6c6a6fc5b0512d4d63a9a60b0dd301ec2887848df0844c01018d18d",
    },
    "simulate-vlow0-prior-csv": {
        "exit": 0,
        "stdout": "5a25aac480c6915f78b980ea467ce16e8a558b18b46671556ee7035a79ecb4be",
        "paths.csv": "9c14eb47d62faa3ef3e4f6dacdc6fb071f933c2390af599bc4a1f969bc262274",
        "simulation.json": "b93a75c04ccd44330e02d9f3f6865c03abcc5de2e3df6f8f443f4dc646b8b61e",
    },
    "simulate-vlow0-low": {
        "exit": 0,
        "stdout": "17536c47aa50b6d95a19ef631698f82b5c96863d9e6b6b87a62b447ab415e8ac",
        "simulation.json": "cd662b0b2f0e288a2d6e1d98fc1cc5523fcf40d7c0537f546f174fd4df7d6354",
    },
    "simulate-vlow0-high": {
        "exit": 0,
        "stdout": "12dc876ffe6cd442c49fac7300a6dcaff312da806a2a885f57564d5d2007264e",
        "simulation.json": "aeb817353ad03acccb023e70531d874957bcc7e1f37bf08f017766d96c8f9bb4",
    },
    "simulate-vlow0-5e-324": {
        "exit": 0,
        "stdout": "12dc876ffe6cd442c49fac7300a6dcaff312da806a2a885f57564d5d2007264e",
        "simulation.json": "aeb817353ad03acccb023e70531d874957bcc7e1f37bf08f017766d96c8f9bb4",
    },
    "simulate-vlow0-2e-310": {
        "exit": 0,
        "stdout": "17536c47aa50b6d95a19ef631698f82b5c96863d9e6b6b87a62b447ab415e8ac",
        "paths.csv": "adca12250f4b4a728009f40968d551e38ea2befa785989a5d94446f537efa8e4",
        "simulation.json": "799d8844ce1823624e9a78879e1baa7776676847417a6e1e295cd604be15c8a1",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(command: str, out: Path) -> dict:
    """Run one command into `out`: its exit code and the digests of its
    stdout and of every file it wrote, by file name."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        argv = [arg.format(out=out, tests=TESTS_DIR) for arg in command.split()]
        code = main([*argv, "--out", str(out)])
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}
    return {"exit": code, "stdout": _sha(buf.getvalue().replace(str(out), "<out>").encode()),
            **files}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_outputs(tmp_path, name):
    assert record(COMMANDS[name], tmp_path) == GOLDEN[name]


if __name__ == "__main__":  # print the digest table for GOLDEN
    for name, command in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f"    {name!r}: {record(command, Path(tmp))!r},\n")
