"""Wire-protocol round-trips and strict rejection paths."""

import math

import pytest

from repro.serve import (
    PROTOCOL_VERSION,
    AgentRequest,
    AgentResponse,
    AllocationResponse,
    BulkSampleRequest,
    BulkSampleResponse,
    ErrorResponse,
    HealthResponse,
    ProtocolError,
    SampleOutcome,
    SampleRequest,
    SampleResponse,
    parse_json,
)


class TestParseJson:
    def test_parses_object(self):
        assert parse_json('{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize("text", ["[1, 2]", '"hi"', "3", "null", "true"])
    def test_rejects_non_object(self, text):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_json(text)

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_json("{not json")

    @pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": Infinity}'])
    def test_rejects_non_finite_literals(self, text):
        with pytest.raises(ProtocolError):
            parse_json(text)


class TestAgentRequest:
    def test_register_round_trip(self):
        request = AgentRequest(action="register", agent="web", workload="canneal")
        assert AgentRequest.from_dict(request.as_dict()) == request

    def test_deregister_round_trip(self):
        request = AgentRequest(action="deregister", agent="web")
        assert AgentRequest.from_dict(request.as_dict()) == request

    def test_rejects_unknown_action(self):
        with pytest.raises(ProtocolError, match="action"):
            AgentRequest.from_dict(
                {"version": PROTOCOL_VERSION, "action": "destroy", "agent": "web"}
            )

    def test_register_requires_workload(self):
        with pytest.raises(ProtocolError, match="workload"):
            AgentRequest.from_dict(
                {"version": PROTOCOL_VERSION, "action": "register", "agent": "web"}
            )

    def test_deregister_forbids_workload(self):
        with pytest.raises(ProtocolError, match="workload"):
            AgentRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "action": "deregister",
                    "agent": "web",
                    "workload": "canneal",
                }
            )

    def test_rejects_unknown_field(self):
        with pytest.raises(ProtocolError, match="unknown"):
            AgentRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "action": "deregister",
                    "agent": "web",
                    "extra": 1,
                }
            )

    def test_rejects_missing_field(self):
        with pytest.raises(ProtocolError, match="missing"):
            AgentRequest.from_dict({"version": PROTOCOL_VERSION, "action": "register"})

    def test_rejects_wrong_version(self):
        with pytest.raises(ProtocolError, match="version"):
            AgentRequest.from_dict({"version": 99, "action": "deregister", "agent": "web"})

    def test_rejects_empty_agent(self):
        with pytest.raises(ProtocolError, match="agent"):
            AgentRequest.from_dict(
                {"version": PROTOCOL_VERSION, "action": "deregister", "agent": ""}
            )


class TestSampleRequest:
    def test_round_trip(self):
        request = SampleRequest(agent="web", bandwidth_gbps=3.2, cache_kb=512.0, ipc=1.4)
        assert SampleRequest.from_dict(request.as_dict()) == request
        assert request.bundle == (3.2, 512.0)

    @pytest.mark.parametrize("value", [True, "3.2", None, math.nan, math.inf])
    def test_rejects_non_finite_numbers(self, value):
        with pytest.raises(ProtocolError):
            SampleRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "agent": "web",
                    "bandwidth_gbps": value,
                    "cache_kb": 512.0,
                    "ipc": 1.4,
                }
            )

    def test_accepts_integer_numbers(self):
        request = SampleRequest.from_dict(
            {
                "version": PROTOCOL_VERSION,
                "agent": "web",
                "bandwidth_gbps": 3,
                "cache_kb": 512,
                "ipc": 1,
            }
        )
        assert request.bundle == (3.0, 512.0)


class TestResponses:
    def test_agent_response_round_trip(self):
        response = AgentResponse(action="register", agent="web", agents=("db", "web"), epoch=4)
        assert AgentResponse.from_dict(response.as_dict()) == response

    def test_sample_response_round_trip(self):
        response = SampleResponse(agent="web", queued=True, epoch=7, pending=3)
        assert SampleResponse.from_dict(response.as_dict()) == response

    def test_allocation_response_round_trip_and_bundle(self):
        response = AllocationResponse(
            epoch=9,
            mechanism="REF",
            feasible=True,
            capacities={"membw_gbps": 12.8, "cache_kb": 2048.0},
            shares={"web": {"membw_gbps": 6.4, "cache_kb": 1024.0}},
        )
        rebuilt = AllocationResponse.from_dict(response.as_dict())
        assert rebuilt == response
        assert rebuilt.bundle("web") == {"membw_gbps": 6.4, "cache_kb": 1024.0}
        with pytest.raises(KeyError):
            rebuilt.bundle("db")

    def test_health_response_round_trip(self):
        response = HealthResponse(
            status="ok",
            epoch=12,
            agents=("db", "web"),
            pending_samples=1,
            uptime_seconds=3.5,
        )
        assert HealthResponse.from_dict(response.as_dict()) == response

    def test_error_response_round_trip(self):
        response = ErrorResponse(error="bad_request", detail="nope")
        assert ErrorResponse.from_dict(response.as_dict()) == response

    def test_allocation_rejects_malformed_shares(self):
        with pytest.raises(ProtocolError):
            AllocationResponse.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "epoch": 1,
                    "mechanism": "REF",
                    "feasible": True,
                    "capacities": {"membw_gbps": 1.0},
                    "shares": {"web": "everything"},
                }
            )


class TestBulkSamples:
    def sample(self, agent="web", ipc=0.8, exploration=False):
        return SampleRequest(
            agent=agent, bandwidth_gbps=4.0, cache_kb=512.0, ipc=ipc, exploration=exploration
        )

    def test_bulk_request_round_trip(self):
        request = BulkSampleRequest(samples=(self.sample("web"), self.sample("db")))
        rebuilt = BulkSampleRequest.from_dict(request.as_dict())
        assert rebuilt == request
        assert [s.agent for s in rebuilt.samples] == ["web", "db"]

    def test_bulk_request_round_trip_keeps_exploration(self):
        # The coordinator re-encodes bulk posts for its cells: a dropped
        # flag would send exploration samples into the outlier gate.
        request = BulkSampleRequest(
            samples=(self.sample("web", exploration=True), self.sample("db"))
        )
        rebuilt = BulkSampleRequest.from_dict(request.as_dict())
        assert rebuilt == request
        assert [s.exploration for s in rebuilt.samples] == [True, False]

    def test_bulk_request_rejects_empty_array(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            BulkSampleRequest(samples=())
        with pytest.raises(ProtocolError, match="non-empty"):
            BulkSampleRequest.from_dict(
                {"version": PROTOCOL_VERSION, "samples": []}
            )

    def test_bulk_request_rejects_non_array_samples(self):
        with pytest.raises(ProtocolError, match="array"):
            BulkSampleRequest.from_dict(
                {"version": PROTOCOL_VERSION, "samples": {"agent": "web"}}
            )

    def test_bulk_request_errors_name_the_offending_index(self):
        good = self.sample().as_dict()
        bad = self.sample().as_dict()
        bad["ipc"] = "fast"
        with pytest.raises(ProtocolError, match=r"samples\[1\]"):
            BulkSampleRequest.from_dict(
                {"version": PROTOCOL_VERSION, "samples": [good, bad]}
            )

    def test_sample_outcome_round_trip_omits_empty_error(self):
        accepted = SampleOutcome(agent="web", queued=True)
        assert "error" not in accepted.as_dict()
        assert SampleOutcome.from_dict(accepted.as_dict()) == accepted
        rejected = SampleOutcome(agent="web", queued=False, error="unknown_agent")
        assert rejected.as_dict()["error"] == "unknown_agent"
        assert SampleOutcome.from_dict(rejected.as_dict()) == rejected

    def test_sample_outcome_rejects_non_bool_queued(self):
        with pytest.raises(ProtocolError, match="queued"):
            SampleOutcome.from_dict({"agent": "web", "queued": 1})

    def test_bulk_response_round_trip(self):
        response = BulkSampleResponse(
            epoch=4,
            pending=3,
            accepted=1,
            rejected=1,
            results=(
                SampleOutcome(agent="web", queued=True),
                SampleOutcome(agent="ghost", queued=False, error="unknown_agent"),
            ),
        )
        assert BulkSampleResponse.from_dict(response.as_dict()) == response

    def test_bulk_response_rejects_bool_counts(self):
        body = BulkSampleResponse(
            epoch=1, pending=0, accepted=1, rejected=0,
            results=(SampleOutcome(agent="web", queued=True),),
        ).as_dict()
        body["accepted"] = True
        with pytest.raises(ProtocolError, match="accepted"):
            BulkSampleResponse.from_dict(body)


class TestProfileFreeRegister:
    """The `"profile": null` register variant (demand learning)."""

    def test_round_trip(self):
        request = AgentRequest(action="register", agent="web", profile_free=True)
        data = request.as_dict()
        assert data["profile"] is None
        assert "workload" not in data
        assert AgentRequest.from_dict(data) == request

    def test_round_trip_with_class_hint(self):
        request = AgentRequest(
            action="register", agent="web", profile_free=True, workload_class="M"
        )
        data = request.as_dict()
        assert data["workload_class"] == "M"
        assert AgentRequest.from_dict(data) == request

    def test_non_null_profile_rejected(self):
        with pytest.raises(ProtocolError, match="profile"):
            AgentRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "action": "register",
                    "agent": "web",
                    "profile": {"alpha": [0.5, 0.5]},
                }
            )

    def test_profile_and_workload_are_exclusive(self):
        with pytest.raises(ProtocolError):
            AgentRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "action": "register",
                    "agent": "web",
                    "workload": "canneal",
                    "profile": None,
                }
            )

    def test_class_hint_requires_profile_free(self):
        with pytest.raises(ProtocolError, match="workload_class"):
            AgentRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "action": "register",
                    "agent": "web",
                    "workload": "canneal",
                    "workload_class": "M",
                }
            )

    def test_unknown_class_rejected(self):
        with pytest.raises(ProtocolError, match="workload_class"):
            AgentRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "action": "register",
                    "agent": "web",
                    "profile": None,
                    "workload_class": "X",
                }
            )

    def test_deregister_forbids_profile(self):
        with pytest.raises(ProtocolError):
            AgentRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "action": "deregister",
                    "agent": "web",
                    "profile": None,
                }
            )


class TestExplorationFlag:
    """The optional `exploration` marker on samples."""

    def test_default_false_and_not_serialized(self):
        request = SampleRequest(agent="web", bandwidth_gbps=3.2, cache_kb=512.0, ipc=1.4)
        assert request.exploration is False
        assert "exploration" not in request.as_dict()

    def test_true_round_trip(self):
        request = SampleRequest(
            agent="web", bandwidth_gbps=3.2, cache_kb=512.0, ipc=1.4, exploration=True
        )
        data = request.as_dict()
        assert data["exploration"] is True
        assert SampleRequest.from_dict(data) == request

    @pytest.mark.parametrize("value", [1, "true", None])
    def test_non_boolean_rejected(self, value):
        with pytest.raises(ProtocolError, match="exploration"):
            SampleRequest.from_dict(
                {
                    "version": PROTOCOL_VERSION,
                    "agent": "web",
                    "bandwidth_gbps": 3.2,
                    "cache_kb": 512.0,
                    "ipc": 1.4,
                    "exploration": value,
                }
            )
