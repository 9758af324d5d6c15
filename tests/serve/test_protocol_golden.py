"""Golden wire corpus: the protocol's bytes and rejection texts, pinned.

Three recordings in ``golden_protocol.json`` guard every change to
:mod:`repro.serve.protocol`:

* ``messages`` — ``json.dumps(as_dict())`` of several instances of each
  of the 14 messages (optional fields set and unset, nested arrays, a
  dead cell's empty grant).  Each must encode to exactly the recorded
  text and decode back to the instance.
* ``requests`` — for the four request messages, every single-key
  mutation of a valid body (an unknown key, each key missing, each key
  set to a value of every JSON kind, odd versions), nested ones
  included: the exact :class:`ProtocolError` text, or the accepted
  message's encoding.  ``parse_json`` gets the same for a set of raw
  bodies.
* ``responses`` — the same mutations of the response messages, recorded
  only as accepted or rejected: a reply the recording rejects must still
  be rejected (the wording of a response-side error is free).

Record only from a revision whose protocol is the reference:
``PYTHONPATH=src python tests/serve/test_protocol_golden.py --record``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.serve.protocol import (
    AgentRequest,
    AgentResponse,
    AllocationResponse,
    BulkSampleRequest,
    BulkSampleResponse,
    CapacityRequest,
    CapacityResponse,
    CellInfo,
    CellsResponse,
    ErrorResponse,
    HealthResponse,
    ProtocolError,
    SampleOutcome,
    SampleRequest,
    SampleResponse,
    parse_json,
)

RECORDING = Path(__file__).with_name("golden_protocol.json")

#: One value of every JSON kind, set in turn on every key.
VALUES = (
    None, True, False, 0, 7, -1, 2.5, -0.5, "", "x", "register", "deregister", "M",
    [], ["x"], [1], {}, {"a": 1},
)
#: Extra values tried on every ``version`` key.
VERSIONS = (2, "1", 1.0)

_SAMPLE = SampleRequest("web", 3.2, 512.0, 0.81)
_EXPLORE = SampleRequest("db", 4.0, 1024.0, 1.0, exploration=True)
_LIVE = CellInfo(
    cell="cell-0", host="127.0.0.1", port=40123, pid=4242, alive=True,
    agents=("db", "web"), grant={"membw_gbps": 12.8, "cache_kb": 2048.0},
)
_DEAD = CellInfo(
    cell="cell-1", host="127.0.0.1", port=40124, pid=-1, alive=False, agents=(), grant={},
)

MESSAGES = {
    "AgentRequest": [
        AgentRequest("register", "web", workload="canneal"),
        AgentRequest("register", "web", profile_free=True),
        AgentRequest("register", "web", profile_free=True, workload_class="M"),
        AgentRequest("deregister", "web"),
    ],
    "SampleRequest": [
        _SAMPLE,
        _EXPLORE,
        SampleRequest("x264", 1e-300, 1.7976931348623157e308, 0.0),
        SampleRequest("neg", -2.5, 0.0, -0.125),
    ],
    "BulkSampleRequest": [
        BulkSampleRequest(samples=(_SAMPLE,)),
        BulkSampleRequest(samples=(_SAMPLE, _EXPLORE, SampleRequest("fft", 6.0, 256.0, 2.0))),
    ],
    "SampleOutcome": [
        SampleOutcome("web", True),
        SampleOutcome("ghost", False, "unknown_agent"),
    ],
    "BulkSampleResponse": [
        BulkSampleResponse(epoch=4, pending=3, accepted=1, rejected=1, results=(
            SampleOutcome("web", True), SampleOutcome("ghost", False, "unknown_agent"),
        )),
        BulkSampleResponse(epoch=-1, pending=0, accepted=0, rejected=0, results=()),
    ],
    "CapacityRequest": [
        CapacityRequest(capacities={"membw_gbps": 12.8, "cache_kb": 2048.0}),
        CapacityRequest(capacities={"membw_gbps": 25.6}),
    ],
    "AgentResponse": [
        AgentResponse(action="register", agent="web", agents=("db", "web"), epoch=4),
        AgentResponse(action="deregister", agent="web", agents=(), epoch=-1),
    ],
    "SampleResponse": [
        SampleResponse(agent="web", queued=True, epoch=7, pending=3),
        SampleResponse(agent="web", queued=False, epoch=0, pending=0),
    ],
    "AllocationResponse": [
        AllocationResponse(
            epoch=9, mechanism="ref", feasible=True,
            capacities={"membw_gbps": 25.6, "cache_kb": 4096.0},
            shares={
                "web": {"membw_gbps": 6.4, "cache_kb": 1024.0},
                "db": {"membw_gbps": 19.2, "cache_kb": 3072.0},
            },
        ),
        AllocationResponse(
            epoch=0, mechanism="ref-hierarchical", feasible=False,
            capacities={"membw_gbps": 25.6, "cache_kb": 4096.0}, shares={},
        ),
    ],
    "CapacityResponse": [
        CapacityResponse(
            epoch=3, agents=("db", "web"),
            capacities={"membw_gbps": 12.8, "cache_kb": 2048.0},
            aggregate_elasticity={"membw_gbps": 0.75, "cache_kb": 1.25},
        ),
    ],
    "CellInfo": [_LIVE, _DEAD],
    "CellsResponse": [
        CellsResponse(
            epoch=5, capacities={"membw_gbps": 25.6, "cache_kb": 4096.0}, cells=(_LIVE, _DEAD),
        ),
        CellsResponse(epoch=-1, capacities={"membw_gbps": 25.6}, cells=()),
    ],
    "HealthResponse": [
        HealthResponse(status="ok", epoch=12, agents=("db", "web"), pending_samples=1,
                       uptime_seconds=3.5),
        HealthResponse(status="degraded", epoch=-1, agents=(), pending_samples=0,
                       uptime_seconds=0.0, mechanism="credit-hierarchical"),
    ],
    "ErrorResponse": [
        ErrorResponse(error="bad_request"),
        ErrorResponse(error="not_found", detail="no route '/v2'"),
    ],
}

CLASSES = {name: type(instances[0]) for name, instances in MESSAGES.items()}

#: Valid request bodies whose every single-key mutation is recorded.
REQUEST_BASES = {
    "AgentRequest/register": (AgentRequest, {
        "version": 1, "action": "register", "agent": "web", "workload": "canneal",
    }),
    "AgentRequest/profile-free": (AgentRequest, {
        "version": 1, "action": "register", "agent": "web", "profile": None,
        "workload_class": "M",
    }),
    "AgentRequest/deregister": (AgentRequest, {
        "version": 1, "action": "deregister", "agent": "web",
    }),
    "SampleRequest": (SampleRequest, {
        "version": 1, "agent": "web", "bandwidth_gbps": 3.2, "cache_kb": 512.0,
        "ipc": 0.81, "exploration": True,
    }),
    "BulkSampleRequest": (BulkSampleRequest, {
        "version": 1, "samples": [
            {"agent": "web", "bandwidth_gbps": 3.2, "cache_kb": 512.0, "ipc": 0.81},
            {"version": 1, "agent": "db", "bandwidth_gbps": 4.0, "cache_kb": 1024.0,
             "ipc": 1.0, "exploration": True},
        ],
    }),
    "CapacityRequest": (CapacityRequest, {
        "version": 1, "capacities": {"membw_gbps": 12.8, "cache_kb": 2048.0},
    }),
}

#: Raw bodies for parse_json.
BODIES = (
    "", " ", "{", '{"a": 1', '{"a": 1,}', "{'a': 1}", '{"a": 1} x', "\ufeff{}",
    "[]", "[1, 2]", '"hi"', "3", "2.5", "null", "true",
    '{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', '{"a": [1, NaN]}',
    "{}", '{"a": 1}', '{"a": 1, "a": 2}', '{"a": [1, {"b": null}]}', '{"a": "\\ud800"}',
)


def mutations(body):
    """``(label, mutated body)`` for every single-key change, nested included.

    Objects get an unknown key, each key removed, and each key set to
    every one of :data:`VALUES` (plus :data:`VERSIONS` on ``version``);
    the walk descends into object values and into the last element of
    arrays.
    """

    def walk(node, path):
        if isinstance(node, dict):
            yield path + "/+bogus", ("add", "bogus", 1)
            for key in node:
                yield f"{path}/{key} removed", ("remove", key, None)
                extra = VERSIONS if key == "version" else ()
                for value in VALUES + extra:
                    yield f"{path}/{key}={json.dumps(value)}", ("set", key, value)
                for label, change in walk(node[key], f"{path}/{key}"):
                    yield label, (key,) + change
        elif isinstance(node, list) and node and isinstance(node[-1], (dict, list)):
            last = len(node) - 1
            for label, change in walk(node[-1], f"{path}/{last}"):
                yield label, (last,) + change

    for label, change in walk(body, ""):
        mutated = copy.deepcopy(body)
        node = mutated
        *steps, op, key, value = change
        for step in steps:
            node = node[step]
        if op == "remove":
            del node[key]
        else:
            node[key] = value
        yield label, mutated


def outcome(decode, data):
    """``"error: <text>"`` or ``"ok: <encoding of the accepted message>"``."""
    try:
        message = decode(data)
    except ProtocolError as error:
        return f"error: {error}"
    if isinstance(message, dict):
        return "ok: " + json.dumps(message)
    return "ok: " + json.dumps(message.as_dict())


def record() -> dict:
    responses = {}
    for name, instances in MESSAGES.items():
        cls = CLASSES[name]
        if name in {label.split("/")[0] for label in REQUEST_BASES}:
            continue
        responses[name] = {
            label: outcome(cls.from_dict, mutated).startswith("error")
            for label, mutated in mutations(instances[0].as_dict())
        }
    return {
        "python": list(sys.version_info[:2]),
        "messages": {
            name: [json.dumps(message.as_dict()) for message in instances]
            for name, instances in MESSAGES.items()
        },
        "requests": {
            label: {
                mutation: outcome(cls.from_dict, mutated)
                for mutation, mutated in mutations(body)
            }
            for label, (cls, body) in REQUEST_BASES.items()
        },
        "parse_json": {body: outcome(parse_json, body) for body in BODIES},
        "responses": responses,
    }


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text())


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_messages_encode_as_recorded_and_decode_back(recording, name):
    cls = CLASSES[name]
    expected = recording["messages"][name]
    assert [json.dumps(message.as_dict()) for message in MESSAGES[name]] == expected
    for message, text in zip(MESSAGES[name], expected):
        assert cls.from_dict(json.loads(text)) == message


@pytest.mark.parametrize("label", sorted(REQUEST_BASES))
def test_request_mutations_get_the_recorded_text(recording, label):
    cls, body = REQUEST_BASES[label]
    expected = recording["requests"][label]
    got = {mutation: outcome(cls.from_dict, mutated) for mutation, mutated in mutations(body)}
    assert got.keys() == expected.keys()
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


def test_parse_json_gets_the_recorded_text(recording):
    expected = recording["parse_json"]
    same_python = recording["python"] == list(sys.version_info[:2])
    for body in BODIES:
        got = outcome(parse_json, body)
        prefix = "error: request body is not valid JSON: "
        if not same_python and expected[body].startswith(prefix):
            # The json module's own wording may change between versions.
            assert got.startswith(prefix), body
        else:
            assert got == expected[body], body


@pytest.mark.parametrize("name", sorted(set(MESSAGES) - {"AgentRequest", "SampleRequest",
                                                          "BulkSampleRequest", "CapacityRequest"}))
def test_response_mutations_rejected_as_recorded(recording, name):
    cls = CLASSES[name]
    expected = recording["responses"][name]
    got = dict(mutations(MESSAGES[name][0].as_dict()))
    assert got.keys() == expected.keys()
    accepted = []
    for label, mutated in got.items():
        if expected[label] and not outcome(cls.from_dict, mutated).startswith("error"):
            accepted.append(label)
    assert accepted == []


def main(argv) -> int:
    if "--record" not in argv:
        print("usage: test_protocol_golden.py --record", file=sys.stderr)
        return 2
    RECORDING.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORDING}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
