"""Chat-completion clients: a real HTTP client and a deterministic mock.

The wire contract is the common hosted chat shape: POST JSON
``{model, messages: [{role, content}, ...], temperature}``; the reply's
first choice's message content is the completion text.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..data.schema import DIMENSIONS
from . import prompts
from .parsing import UNANSWERED

if TYPE_CHECKING:
    import requests

ENDPOINT_ENV = "PROCKT_CHAT_ENDPOINT"
API_KEY_ENV = "PROCKT_CHAT_API_KEY"
MODEL_ENV = "PROCKT_CHAT_MODEL"
RETRYABLE_CLIENT_ERRORS = (408, 429)  # request timeout, too many requests
RETRY_AFTER_STATUSES = (429, 503)  # too many requests, service unavailable
MAX_RETRY_AFTER_S = 60.0  # the longest Retry-After wait obeyed


class ChatClientError(RuntimeError):
    """A completion could not be obtained (after retries, if any)."""


@dataclass
class ChatParams:
    temperature: float = 0.0
    max_retries: int = 3
    timeout: float = 60.0


class ChatClient(Protocol):
    def complete(self, system_message: str, user_message: str, params: ChatParams) -> str:
        ...


class HttpChatClient:
    """Client for any chat-completions-compatible HTTP endpoint.

    Endpoint, model, and API key default to the PROCKT_CHAT_* environment
    variables. Retries with exponential backoff on transport errors,
    malformed replies (a content that is missing or not a string), 5xx
    responses and the 4xx statuses in ``RETRYABLE_CLIENT_ERRORS``; any other
    4xx is a request that a repeat cannot fix (RFC 9110 §15.5), so it raises
    at once. A 429 or 503 with a ``Retry-After`` header (RFC 9110 §10.2.3)
    waits that long instead, up to ``MAX_RETRY_AFTER_S``. ``requests`` is
    imported here, so that only a process that makes this client loads it.
    """

    def __init__(self, endpoint: str | None = None, model: str | None = None,
                 api_key: str | None = None, session: requests.Session | None = None,
                 backoff: float = 0.5):
        import requests

        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        self.model = model or os.environ.get(MODEL_ENV, "gpt-5")
        self.api_key = api_key or os.environ.get(API_KEY_ENV)
        self.session = session or requests.Session()
        self.backoff = backoff
        if not self.endpoint:
            raise ChatClientError(
                f"no chat endpoint configured (set {ENDPOINT_ENV} or pass endpoint=)")

    def complete(self, system_message: str, user_message: str, params: ChatParams) -> str:
        import requests

        messages = []
        if system_message:
            messages.append({"role": "system", "content": system_message})
        messages.append({"role": "user", "content": user_message})
        payload = {"model": self.model, "messages": messages,
                   "temperature": params.temperature}
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(params.max_retries):
            wait = self.backoff * (2 ** attempt)
            try:
                resp = self.session.post(self.endpoint, json=payload, headers=headers,
                                         timeout=params.timeout)
                status = resp.status_code
                if 400 <= status < 500 and status not in RETRYABLE_CLIENT_ERRORS:
                    raise ChatClientError(f"chat completion failed with HTTP {status}; "
                                          f"a client error is not retried")
                if status in RETRY_AFTER_STATUSES:
                    wait = _retry_after(resp.headers.get("Retry-After"), wait)
                resp.raise_for_status()
                content = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise ValueError(f"reply content is {type(content).__name__}, not a string")
                return content
            except (requests.RequestException, LookupError, TypeError, ValueError) as exc:
                last_error = exc
                if attempt + 1 < params.max_retries:
                    time.sleep(wait)
        raise ChatClientError(f"chat completion failed after {params.max_retries} "
                              f"attempts: {last_error}")


def _retry_after(header: str | None, default: float) -> float:
    """Seconds to wait for a ``Retry-After`` value, capped at ``MAX_RETRY_AFTER_S``.

    The value is delta-seconds or an HTTP-date; a missing or garbled one
    gives ``default``, and a date already past gives 0.
    """
    if header is None:
        return default
    header = header.strip()
    if header.isascii() and header.isdigit():
        seconds = float(header)
    else:
        try:
            when = parsedate_to_datetime(header)
        except (TypeError, ValueError):
            return default
        if when.tzinfo is None:  # "-0000": UTC, as every HTTP-date is
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return min(max(seconds, 0.0), MAX_RETRY_AFTER_S)


# -- deterministic mock ---------------------------------------------------

SATISFY_PROB = 0.7     # P(verdict 1) for an answered indicator
UNANSWERED_PROB = 0.2  # P(the mock student answers UNANSWERED)
_CODE_KEY_RE = re.compile(r'"((?:CU|SC|PF|AR)[0-9]+)"\s*:')
_ANSWER_RE = re.compile(r'\{\s*"((?:CU|SC|PF|AR)[0-9]+)"\s*:\s*"((?:[^"\\]|\\.)*)"\s*\}')

_INDICATOR_PHRASES = [
    "Identify the quantities given in the problem",
    "State the concept needed to solve the problem",
    "Choose a strategy that simplifies the expression",
    "Carry out the computation step by step",
    "Check the result against the problem's conditions",
    "Explain why the chosen approach works",
    "Relate the problem to a similar solved problem",
    "Interpret the final value in context",
]


def _seed_from(*parts: str) -> int:
    digest = hashlib.sha256("\x1f".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


class MockChatClient:
    """Rule-based stand-in for a hosted model.

    Outputs are a pure function of the prompt text (hash-seeded), schema
    valid, and stage-aware, so the full pipeline runs offline and
    bit-identically across runs. ``model`` names the rules and keys the
    cached completions; it changes with them.
    """

    model = "mock-1"

    def complete(self, system_message: str, user_message: str, params: ChatParams) -> str:
        for stage, head in prompts.STAGE_HEADS.items():
            if user_message.startswith(head):  # each stage's reply is the method named after it
                return getattr(self, f"_{stage}")(user_message)
        raise ChatClientError("mock client: unrecognized prompt")

    def _indicators(self, prompt: str) -> str:
        rng = np.random.default_rng(_seed_from("indicators", prompt))
        n = int(rng.integers(8, 16))
        # every dimension gets at least one indicator; the rest are random
        cats = list(DIMENSIONS) + [DIMENSIONS[int(rng.integers(0, 4))] for _ in range(n - 4)]
        rng.shuffle(cats)
        numbered = {d: 0 for d in DIMENSIONS}
        entries = []
        for cat in cats:
            numbered[cat] += 1
            phrase = _INDICATOR_PHRASES[int(rng.integers(0, len(_INDICATOR_PHRASES)))]
            entries.append({f"{cat}{numbered[cat]}": phrase})
        body = json.dumps({"mathematical_proficiency_indicators": entries}, indent=2)
        if rng.random() < 0.5:
            return f"Here is the rubric.\n```json\n{body}\n```"
        return body

    @staticmethod
    def _input_codes(prompt: str, marker: str) -> list[str]:
        section = prompt[prompt.rfind(marker) + len(marker):]
        codes = []
        for m in _CODE_KEY_RE.finditer(section):
            if m.group(1) not in codes:
                codes.append(m.group(1))
        return codes

    def _responses(self, prompt: str) -> str:
        codes = self._input_codes(prompt, "Input Indicators: [")
        out = {}
        for code in codes:
            rng = np.random.default_rng(_seed_from("response", prompt, code))
            roll = rng.random()
            if roll < UNANSWERED_PROB:
                out[code] = UNANSWERED
            elif roll < UNANSWERED_PROB + 0.2:
                out[code] = f"Not written, but likely the step for {code} was done mentally."
            else:
                out[code] = f"The written work shows the step for {code}."
        return json.dumps(out, indent=2)

    def _verdicts(self, prompt: str) -> str:
        section = prompt[prompt.rfind("Answer Indicate: ["):]
        verdicts = {}
        for code, answer in _ANSWER_RE.findall(section):
            if code in verdicts:
                continue
            if answer.startswith(UNANSWERED):
                verdicts[code] = 0
            else:
                rng = np.random.default_rng(_seed_from("verdict", prompt, code))
                verdicts[code] = int(rng.random() < SATISFY_PROB)
        return json.dumps(verdicts)
