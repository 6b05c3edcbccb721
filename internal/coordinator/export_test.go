package coordinator

import (
	"lowdimlp/internal/comm"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
)

// Loopback returns the in-process transport over one site per view,
// for the external tests, and a func that closes the sites.
func Loopback[C, B any](ra lptype.RowAccess[C, B], views []dataset.View, cc comm.Codec[C], bc comm.Codec[B]) (comm.Transport, func()) {
	sites := make([]*protoSite[C, B], len(views))
	for i, v := range views {
		sites[i] = newProtoSite(lptype.NewSiteWeights(ra, v), cc, bc)
	}
	return &localTransport[C, B]{sites: sites}, func() {
		for _, s := range sites {
			s.Close()
		}
	}
}
