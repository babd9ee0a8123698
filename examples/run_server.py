#!/usr/bin/env python
"""Start the C-Explorer web system (the Figure 3 browser-server model).

Serves the bundled synthetic DBLP graph on http://127.0.0.1:8080 --
open it in a browser for the Figure 1 exploration UI, or talk JSON to
the versioned /v1/* endpoints (see docs/API.md for the contract).

Run:  python examples/run_server.py [port]
"""

import sys

from repro import CExplorer, make_server
from repro.datasets import generate_dblp_graph


def main():
    port = int(sys.argv[1]) if len(sys.argv) > 1 else 8080
    explorer = CExplorer()
    explorer.add_graph("dblp", generate_dblp_graph())
    explorer.index()  # build the CL-tree up front: queries stay instant

    server = make_server(explorer, port=port)
    host, bound_port = server.server_address
    print("C-Explorer serving dblp ({} vertices, {} edges)".format(
        explorer.graph.vertex_count, explorer.graph.edge_count))
    print("Open http://{}:{}/  (Ctrl-C to stop)".format(host, bound_port))
    print("API: POST http://{}:{}/v1/search  "
          '{{"vertex": "jim gray", "k": 4}}'.format(host, bound_port))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nbye")
    finally:
        server.server_close()
        explorer.engine.shutdown()


if __name__ == "__main__":
    main()
