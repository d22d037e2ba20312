import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from socialsim.population import AgentProfile, FollowGraph, generate_population, generate_seed_corpus
from socialsim.recommender import Feed


@pytest.fixture(scope="session")
def small_population():
    return generate_population(40, seed=11)


@pytest.fixture(scope="session")
def small_corpus():
    return generate_seed_corpus(seed=11, size=12)


def tiny_profiles():
    """Five hand-built agents; 0 and 1 are influencers."""
    return [
        AgentProfile(0, "ua", frozenset(["kw0"]), True, True),
        AgentProfile(1, "ub", frozenset(["kw1"]), True, True),
        AgentProfile(2, "uc", frozenset(["kw2"]), False, False),
        AgentProfile(3, "ud", frozenset(["kw3"]), False, False),
        AgentProfile(4, "ue", frozenset(["kw4"]), False, False),
    ]


def tiny_graph():
    return FollowGraph({0: {1}, 1: {0}, 2: {0}, 3: {0, 1}, 4: {1}})


def make_feed(posts, likes, reshares, *, n_followed=0, store=None) -> Feed:
    """A hand-built Feed from per-slot values, followed slots first.

    ``store`` maps a post id to its text (a world's post list does); by
    default each shown post's text is "body <id>".
    """
    posts = np.asarray(posts, dtype=np.int64)
    if store is None:
        store = {p: f"body {p}" for p in posts.tolist()}
    return Feed(posts, np.asarray(likes, dtype=np.int64), np.asarray(reshares, dtype=np.int64), n_followed, store)


def chat_reply(content: str) -> bytes:
    """The body of a chat-completions reply whose one choice holds ``content``."""
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode("utf-8")


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers, body))
        self.server.stopping.wait(self.server.delay)
        status, reply = self.server.reply(json.loads(body))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, format, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1: ``reply`` maps each posted request to (status, body),
    sent after ``delay`` seconds; ``seen`` holds each request's (path, headers, body)."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.reply = lambda request: (200, chat_reply('{"action": "read"}'))
        self.delay = 0.0
        self.seen = []
        self.stopping = threading.Event()

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1"

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed the connection its reply goes to


@pytest.fixture()
def chat_server():
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    server.stopping.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
