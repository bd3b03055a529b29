import json
import re
import shlex
from pathlib import Path

import pytest

import limid
import limid.cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs_and_matches_the_oracle():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    d, result = scope["d"], scope["result"]
    assert result.value == pytest.approx(limid.brute_force_meu(d)[0], abs=1e-12)
    assert result.value == pytest.approx(0.8, abs=1e-12)


def test_the_cli_block_runs_on_the_document_gen_writes(capsys, monkeypatch, tmp_path):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(limid.cli.MAX_SET_SIZE_ENV, raising=False)
    outputs, comments = {}, {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        command, _, target = command.partition(">")
        argv = shlex.split(command)
        assert argv[0] == "limid"
        assert limid.cli.main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if target.strip():
            Path(target.strip()).write_text(out, encoding="utf-8")
        # a subcommand names its line, and solve's mode flag tells its two apart
        key = " ".join(argv[1:3] if argv[1] == "solve" else argv[1:2])
        outputs[key], comments[key] = out, comment
    assert set(outputs) == {"gen", "validate", "solve --epsilon", "solve --exact",
                            "oracle", "reduce"}
    exact = json.loads(outputs["solve --exact"])["value"]
    assert exact == pytest.approx(json.loads(outputs["oracle"])["value"], abs=1e-12)
    named = re.findall(r'"(\w+)"', comments["solve --epsilon"])
    assert sorted(json.loads(outputs["solve --epsilon"])) == sorted(named)
